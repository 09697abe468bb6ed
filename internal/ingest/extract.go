package ingest

import (
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"slices"

	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/intern"
	"gpuresilience/internal/obs"
	"gpuresilience/internal/parallel"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// Options configures a Stage I run over files (Extract) or a stream
// (ExtractReader).
type Options struct {
	// Workers bounds the run's total parallelism: for a stream or a single
	// shard it is the engine's chunk-level worker count, with many shards
	// it is how many files parse concurrently. 0 means GOMAXPROCS, 1 is
	// fully sequential.
	Workers int
	// Lenient switches every shard to the corruption-tolerant extractor.
	// Lenient runs bypass the cache (quarantine state is not persisted).
	Lenient bool
	// LenientOptions carries the run-wide error budgets. The absolute
	// budget also fails any single shard fast; the fractional budget is
	// evaluated once over the summed totals, matching the single-stream
	// rule that a running fraction is never checked mid-stream.
	LenientOptions syslog.LenientOptions
	// Cache enables the event-shard cache when non-nil.
	Cache *Cache
	// Obs receives the ingest spans and cache counters when non-nil.
	Obs *obs.Registry
}

// ShardInfo is one shard's per-run record: provenance for manifests plus
// what the cache did for it.
type ShardInfo struct {
	// Path is the shard's log file.
	Path string
	// Digest is the file's content digest (size + SHA-256), the same shape
	// run manifests pin inputs with.
	Digest obs.FileDigest
	// Events is how many events the shard contributed.
	Events int
	// Outcome says whether the shard was served from cache.
	Outcome CacheOutcome
}

// Result is a Stage I run's output: the event stream, aggregate scan
// statistics, and the per-shard records (nil for a stream).
type Result struct {
	// Segments is the events of an extraction without a cache, or of a
	// lenient one, which bypasses it, as Stage I filled them, never
	// copied: each shard's chunk slices or scan blocks, in plan order,
	// each shard's in source-line order. Stage II reads them in time
	// order without modifying them. They are the caller's alone.
	Segments [][]xid.Event
	// Runs holds every shard of a strict run with a cache, in plan order:
	// a cursor over the shard's checked .evshard image that yields its
	// events in Stage II order, one at a time, with no decoded slice. A
	// cache hit's image is the stored entry; a shard parsed with a cache
	// configured is encoded as soon as its parse returns, and its image is
	// both its run and the entry the run stores. The runs in plan order
	// are exactly Stage I over the files' concatenation, each shard's
	// events stably sorted, which Stage II (coalesce.Merge) cannot tell
	// apart. Each run can be read once. ExtractSegments sets Segments or
	// Runs, never both.
	Runs []coalesce.Run
	// Events is the whole stream in plan order, each cached shard's events
	// in Stage II order. Only Extract sets it, and leaves Segments and
	// Runs nil.
	Events []xid.Event
	// Stats sums every shard's scan statistics.
	Stats syslog.ExtractStats
	// Ingestion is the merged lenient report (nil on strict runs), with
	// quarantine line numbers rebased to the concatenated stream.
	Ingestion *syslog.IngestionReport
	// Shards records each shard in plan order.
	Shards []ShardInfo
}

// shardState is the per-shard scratch the extraction phases fill in.
type shardState struct {
	file obs.FileDigest // the shard's size and content hash; zero until hashed
	// segs holds an uncached parsed shard's events as Stage I handed them
	// over, and hit a cached shard's checked entry: the cache's, or the
	// image a parse encoded, kept in img until it is stored. events counts
	// them.
	segs    [][]xid.Event
	hit     *entry
	img     []byte
	events  int
	stats   syslog.ExtractStats
	report  *syslog.IngestionReport
	outcome CacheOutcome
}

// sourceDigest is the shard's content hash in the form cache entries are
// keyed on.
func (st *shardState) sourceDigest() [digestLen]byte {
	var sum [digestLen]byte
	_, _ = hex.Decode(sum[:], []byte(st.file.SHA256)) // obs digests are always 64 hex digits
	return sum
}

// Extract is ExtractSegments with the segments, or the runs decoded,
// concatenated into Result.Events, in plan order: a forward kept for the
// benchmark harness.
func Extract(plan Plan, opt Options) (*Result, error) {
	res, err := ExtractSegments(plan, opt)
	if res != nil {
		res.Events, res.Segments, res.Runs = slices.Clip(res.concat(opt.Workers)), nil, nil
	}
	return res, err
}

// concat reads the result's segments or runs into one stream, in plan
// order: the segments through concatShards, the runs decoded in parallel
// on at most workers goroutines.
func (res *Result) concat(workers int) []xid.Event {
	if len(res.Runs) == 0 {
		return concatShards(res.Segments)
	}
	at := make([]int, len(res.Runs)+1) // where each run's events start
	for j, r := range res.Runs {
		at[j+1] = at[j] + r.Len
	}
	events := make([]xid.Event, at[len(res.Runs)])
	_ = parallel.ForEach(len(res.Runs), workers, func(j int) error {
		for k := at[j]; k < at[j+1]; k++ {
			res.Runs[j].Cursor.Next(&events[k])
		}
		return nil
	})
	return events
}

// ExtractSegments runs Stage I over every shard in the plan and returns
// the results in plan order: with a cache on a strict run, every shard as
// a run, otherwise the parsed events as segments. Cache hits are checked
// in full once, while probing, and are not parsed or decoded; the rest
// parse concurrently on the pooled byte parsers (bounded by
// opt.Workers), each parse worker handing its scan storage from one
// shard to the next. With a cache, a parsed shard is encoded as soon as
// its parse returns, its events give way to the image, and once every
// shard has parsed the images are written to the cache; a run that fails
// stores no entry, and a store that fails (an unwritable cache
// directory) is counted and never fails the run. The event stream and statistics are identical at any
// worker count, and equal a single run over the shards' concatenation in
// plan order, up to the order of each cached shard's events.
//
// When opt.Obs is enabled the run records the ingest.shards gauge, the
// cache.{hit,miss,invalidated,bypass,write,write_failed} counters, a per-shard
// stage1.shard.N span for every parsed shard (from its open to its
// encode), and the usual umbrella
// stage1.extract / stage1.lenient span — only when at least one shard
// actually parsed, so a fully cache-warm run is recognizable by that
// span's absence.
func ExtractSegments(plan Plan, opt Options) (*Result, error) {
	n := len(plan.Shards)
	if n == 0 {
		return nil, fmt.Errorf("ingest: empty plan")
	}
	reg := opt.Obs
	reg.Gauge("ingest.shards").Set(int64(n))
	states := make([]shardState, n)

	cacheable := opt.Cache != nil && !opt.Lenient
	if opt.Cache != nil && opt.Lenient {
		reg.Counter("cache.bypass").Add(int64(n))
		for i := range states {
			states[i].outcome = CacheBypass
		}
	}

	// Probe phase: hash every source and try its cache entry, in
	// parallel. Counters are bumped after the fan-in, in plan order, so
	// metric totals are deterministic (they would be anyway — counters
	// are atomic — but ordering keeps traces readable).
	if cacheable {
		err := parallel.ForEach(n, opt.Workers, func(i int) error {
			st := &states[i]
			var err error
			st.file, err = obs.HashFile(plan.Shards[i].Path)
			if err != nil {
				return fmt.Errorf("ingest: hash %s: %w", plan.Shards[i].Path, err)
			}
			st.hit, _, st.outcome = opt.Cache.open(plan.Shards[i].Path, st.sourceDigest(), false)
			if st.outcome == CacheHit {
				st.events, st.stats = st.hit.count, st.hit.head.Stats
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i := range states {
			reg.Counter("cache." + states[i].outcome.String()).Add(1)
		}
	}

	// Parse phase: every shard the cache could not serve. The umbrella
	// span exists only when this phase has work, so its absence marks a
	// fully warm run.
	var toParse []int
	for i := range states {
		if states[i].outcome != CacheHit {
			toParse = append(toParse, i)
		}
	}
	if len(toParse) > 0 {
		if err := parseShards(plan, states, toParse, opt); err != nil {
			return nil, err
		}
	}

	// Stores run once every shard has parsed, so a failed parse stores
	// nothing, and finish before ExtractSegments returns.
	if cacheable {
		storeShards(plan, states, toParse, opt)
	}

	res := &Result{Shards: make([]ShardInfo, n)}
	var reports []*syslog.IngestionReport
	for i := range states {
		st := &states[i]
		if st.hit != nil {
			res.Runs = append(res.Runs, coalesce.Run{Len: st.events, Cursor: st.hit.cursor()})
		}
		res.Segments = append(res.Segments, st.segs...)
		res.Stats.Lines += st.stats.Lines
		res.Stats.XIDLines += st.stats.XIDLines
		res.Stats.Skipped += st.stats.Skipped
		res.Stats.Malformed += st.stats.Malformed
		if st.report != nil {
			reports = append(reports, st.report)
		}
		res.Shards[i] = ShardInfo{
			Path:    plan.Shards[i].Path,
			Digest:  st.file,
			Events:  st.events,
			Outcome: st.outcome,
		}
	}
	if opt.Lenient {
		rep, err := syslog.MergeReports(reports, opt.LenientOptions)
		res.Ingestion = rep
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// storeShards writes the listed shards' images to the cache, in
// parallel. It counts cache.write for each entry written and
// cache.write_failed for each entry a failed store (an unwritable
// directory, a full disk) left unwritten: the cache is an optimization,
// so a store never fails the run, which goes on from the images in
// memory.
func storeShards(plan Plan, states []shardState, shards []int, opt Options) {
	_ = parallel.ForEach(len(shards), opt.Workers, func(k int) error {
		i := shards[k]
		if err := opt.Cache.store(plan.Shards[i].Path, states[i].img); err != nil {
			opt.Obs.Counter("cache.write_failed").Add(1)
			return nil
		}
		opt.Obs.Counter("cache.write").Add(1)
		return nil
	})
}

// concatShards joins event slices (shards, or a run's segments) in order.
// A single non-empty slice is returned as it is, without a copy.
func concatShards(shards [][]xid.Event) []xid.Event {
	var only []xid.Event
	for _, s := range shards {
		if len(s) == 0 {
			continue
		}
		if only != nil {
			return slices.Concat(shards...)
		}
		only = s
	}
	return only
}

// ExtractReader runs Stage I over one stream — a pipe, an in-memory log —
// with the same engine and instrumentation as Extract, chunk-parallel up to
// opt.Workers. A stream has no path or digest to key a cache entry on, so
// it bypasses the cache: opt.Cache is ignored, and neither the cache
// counters nor the ingest.shards gauge move. The result is non-nil even
// alongside an error.
func ExtractReader(r io.Reader, opt Options) (*Result, error) {
	s1 := startStage1(opt)
	var st shardState
	_, err := s1.parse(r, opt.engine(opt.Workers, s1.meter(), s1.alloc, opt.LenientOptions), nil, &st)
	s1.end(int64(st.stats.Lines), int64(st.events))
	return &Result{Segments: st.segs, Stats: st.stats, Ingestion: st.report}, err
}

// engine maps the run's settings onto one engine call; lopt is the budget
// set for that call, used only when the run is lenient.
func (o Options) engine(workers int, meter parallel.WorkerMeter, alloc *intern.Stats, lopt syslog.LenientOptions) syslog.Options {
	eo := syslog.Options{Workers: workers, Meter: meter, Alloc: alloc}
	if o.Lenient {
		eo.Lenient = &lopt
	}
	return eo
}

// stage1 is the instrumentation of one Stage I run, shared by files and
// streams so it is written in one place: the stage1.extract span
// (stage1.lenient for lenient runs) with its lines in, events out, bytes
// read and per-worker utilization, plus the intern.hits, intern.misses and
// stage1.alloc_bytes counters. The zero value, for a disabled registry,
// records nothing.
type stage1 struct {
	reg   *obs.Registry
	sp    *obs.Span
	alloc *intern.Stats
}

// startStage1 opens the run's span when opt.Obs is enabled.
func startStage1(opt Options) stage1 {
	if !opt.Obs.Enabled() {
		return stage1{}
	}
	name := "stage1.extract"
	if opt.Lenient {
		name = "stage1.lenient"
	}
	sp := opt.Obs.StartSpan(name)
	sp.SetWorkers(parallel.Resolve(opt.Workers))
	return stage1{reg: opt.Obs, sp: sp, alloc: new(intern.Stats)}
}

// meter is the span's per-worker meter, nil when instrumentation is off.
func (s stage1) meter() parallel.WorkerMeter {
	if s.sp == nil {
		return nil
	}
	return s.sp.ObserveWorker
}

// parse runs the engine over one source into st's segments, on u's scan
// storage (nil for its own), and adds the bytes it read to the span,
// returning that count for a per-shard span.
func (s stage1) parse(src io.Reader, eo syslog.Options, u *syslog.Reuse, st *shardState) (int64, error) {
	var cr *obs.CountingReader
	if s.sp != nil {
		cr = obs.NewCountingReader(src)
		src = cr
	}
	var err error
	st.stats, st.report, err = u.ExtractBatches(src, eo, func(b []xid.Event) error {
		st.segs = append(st.segs, b)
		st.events += len(b)
		return nil
	})
	if cr == nil {
		return 0, err
	}
	s.sp.AddBytes(cr.N())
	return cr.N(), err
}

// end closes the span with the run's totals and publishes the interner's:
// its traffic, and the bytes actually copied out of the scan buffers
// (cache misses).
func (s stage1) end(lines, events int64) {
	if s.sp == nil {
		return
	}
	s.sp.AddIn(lines)
	s.sp.AddOut(events)
	s.sp.End()
	s.reg.Counter("intern.hits").Add(s.alloc.Hits)
	s.reg.Counter("intern.misses").Add(s.alloc.Misses)
	s.reg.Counter("stage1.alloc_bytes").Add(s.alloc.Bytes)
}

// shardWorker is one parse goroutine's storage, handed from each shard
// it parses to the next: the scan's reader and event blocks, and the
// .evshard encoder's.
type shardWorker struct {
	scan syslog.Reuse
	enc  encoder
}

// parseShards runs Stage I over the listed shards. A single-shard plan
// keeps the whole worker budget for chunk-level parallelism inside the
// file (the pre-sharding fast path); a multi-shard plan parallelizes
// across files with line-at-a-time per-file scans, which keeps every
// shard's output and statistics chunking-independent. With a cache, each
// shard is encoded as soon as its parse returns (encodeParsed), and its
// event blocks go back to the worker's storage for the next shard.
func parseShards(plan Plan, states []shardState, toParse []int, opt Options) error {
	s1 := startStage1(opt)
	meter := s1.meter()
	innerWorkers, outerWorkers := 1, opt.Workers
	var outerMeter parallel.WorkerMeter
	if len(plan.Shards) == 1 {
		// One file: chunk-level parallelism inside the scan, metered per
		// chunk exactly like a stream.
		innerWorkers, outerWorkers = opt.Workers, 1
	} else {
		outerMeter, meter = meter, nil
	}
	// The absolute budget also fails a single shard fast; the fractional
	// one applies to the whole run only.
	lopt := opt.LenientOptions
	lopt.MaxBadFrac = 0
	cacheable := opt.Cache != nil && !opt.Lenient

	// The free list holds one set of storage per concurrent parse: a parse
	// takes a set, or makes one when none is free, and puts it back.
	free := make(chan *shardWorker, min(parallel.Resolve(outerWorkers), len(toParse)))
	allocs := make([]intern.Stats, len(toParse))
	err := parallel.ForEachMeter(len(toParse), outerWorkers, outerMeter, func(k int) error {
		i := toParse[k]
		st := &states[i]
		shard := plan.Shards[i]
		var w *shardWorker
		select {
		case w = <-free:
		default:
			w = new(shardWorker)
		}
		defer func() { free <- w }()
		var ssp *obs.Span
		if s1.sp != nil {
			ssp = opt.Obs.StartSpan(fmt.Sprintf("stage1.shard.%03d", shard.Ordinal))
			defer ssp.End()
		}
		f, err := os.Open(shard.Path)
		if err != nil {
			return err
		}
		defer f.Close()

		// The parse pass doubles as the hash pass when the probe phase
		// did not already digest the file.
		var src io.Reader = f
		var hr *obs.HashingReader
		if st.file.SHA256 == "" {
			hr = obs.NewHashingReader(f)
			src = hr
		}
		n, err := s1.parse(src, opt.engine(innerWorkers, meter, &allocs[k], lopt), &w.scan, st)
		if err != nil {
			return fmt.Errorf("ingest: shard %s: %w", shard.Path, err)
		}
		if hr != nil {
			st.file = hr.Digest()
		}
		if cacheable {
			encodeParsed(w, st, shard.Path, opt.Cache)
		}
		ssp.AddIn(int64(st.stats.Lines))
		ssp.AddOut(int64(st.events))
		ssp.AddBytes(n)
		return nil
	})
	var lines, events int64
	for k, i := range toParse {
		if s1.alloc != nil {
			s1.alloc.Add(allocs[k])
		}
		lines += int64(states[i].stats.Lines)
		events += int64(states[i].events)
	}
	s1.end(lines, events)
	return err
}

// encodeParsed turns a parsed shard into its cache image, encoded under
// the cache's key on w's encoder, and the checked entry its run reads;
// the shard's event blocks go back to w's scan storage.
func encodeParsed(w *shardWorker, st *shardState, path string, cache *Cache) {
	p := &Payload{SourceDigest: st.sourceDigest(), ConfigDigest: cache.Key.digest(), SourcePath: path, Stats: st.stats}
	st.img, st.hit = w.enc.encode(p, st.segs)
	w.scan.Recycle(st.segs)
	st.segs = nil
}
