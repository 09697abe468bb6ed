package ingest

import (
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"slices"

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
	// Segments is the event stream as Stage I filled it, never copied:
	// each shard's chunk slices or scan blocks, or its cache entry's
	// decoded slice, in plan order. Their concatenation is every shard's
	// events in plan order, each shard's in source-line order: exactly
	// Stage I over the files' concatenation, whether or not the files are
	// time-ordered. Stage II reads them in time order without modifying
	// them. They are the caller's alone: every cache store has finished
	// reading them.
	Segments [][]xid.Event
	// Events is Segments concatenated. Only Extract sets it, and leaves
	// Segments nil.
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
	// segs holds the shard's events as Stage I handed them over, or as
	// the cache decoded them, in one segment; events counts them.
	segs    [][]xid.Event
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

// Extract is ExtractSegments with the segments concatenated into
// Result.Events: a forward kept for the benchmark harness.
func Extract(plan Plan, opt Options) (*Result, error) {
	res, err := ExtractSegments(plan, opt)
	if res != nil {
		res.Events, res.Segments = slices.Clip(concatShards(res.Segments)), nil
	}
	return res, err
}

// ExtractSegments runs Stage I over every shard in the plan and returns
// the results in plan order, the events as segments. Cached shards load
// without parsing; the rest parse concurrently on the pooled byte parsers
// (bounded by opt.Workers) and, once every shard has parsed, are written
// back to the cache; a run that fails stores no entry. The event stream and statistics are identical
// at any worker count, and equal a single run over the shards'
// concatenation in plan order.
//
// When opt.Obs is enabled the run records the ingest.shards gauge, the
// cache.{hit,miss,invalidated,bypass,write} counters, a per-shard
// stage1.shard.N span for every parsed shard, and the usual umbrella
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
			var p *Payload
			p, st.outcome = opt.Cache.Load(plan.Shards[i].Path, st.sourceDigest())
			if st.outcome == CacheHit {
				st.segs, st.events, st.stats = [][]xid.Event{p.Events}, len(p.Events), p.Stats
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
		if err := storeShards(plan, states, toParse, opt); err != nil {
			return nil, err
		}
	}

	res := &Result{Shards: make([]ShardInfo, n)}
	var reports []*syslog.IngestionReport
	for i := range states {
		st := &states[i]
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

// storeShards writes the listed shards' events to the cache, in parallel,
// counting cache.write for each entry written.
func storeShards(plan Plan, states []shardState, shards []int, opt Options) error {
	return parallel.ForEach(len(shards), opt.Workers, func(k int) error {
		i := shards[k]
		st := &states[i]
		p := &Payload{SourceDigest: st.sourceDigest(), SourcePath: plan.Shards[i].Path, Stats: st.stats}
		if err := opt.Cache.store(plan.Shards[i].Path, p, st.segs); err != nil {
			return err
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
	_, err := s1.parse(r, opt.engine(opt.Workers, s1.meter(), s1.alloc, opt.LenientOptions), &st)
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

// parse runs the engine over one source into st's segments and adds the
// bytes it read to the span, returning that count for a per-shard span.
func (s stage1) parse(src io.Reader, eo syslog.Options, st *shardState) (int64, error) {
	var cr *obs.CountingReader
	if s.sp != nil {
		cr = obs.NewCountingReader(src)
		src = cr
	}
	var err error
	st.stats, st.report, err = syslog.ExtractBatches(src, eo, func(b []xid.Event) error {
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

// parseShards runs Stage I over the listed shards. A single-shard plan
// keeps the whole worker budget for chunk-level parallelism inside the
// file (the pre-sharding fast path); a multi-shard plan parallelizes
// across files with line-at-a-time per-file scans, which keeps every
// shard's output and statistics chunking-independent.
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

	allocs := make([]intern.Stats, len(toParse))
	err := parallel.ForEachMeter(len(toParse), outerWorkers, outerMeter, func(k int) error {
		i := toParse[k]
		st := &states[i]
		shard := plan.Shards[i]
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
		n, err := s1.parse(src, opt.engine(innerWorkers, meter, &allocs[k], lopt), st)
		if err != nil {
			return fmt.Errorf("ingest: shard %s: %w", shard.Path, err)
		}
		if hr != nil {
			st.file = hr.Digest()
		}
		if s1.sp != nil {
			ssp := opt.Obs.StartSpan(fmt.Sprintf("stage1.shard.%03d", shard.Ordinal))
			ssp.AddIn(int64(st.stats.Lines))
			ssp.AddOut(int64(st.events))
			ssp.AddBytes(n)
			ssp.End()
		}
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
