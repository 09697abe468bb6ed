package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"gpuresilience/internal/avail"
	"gpuresilience/internal/calib"
	"gpuresilience/internal/cluster"
	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/core"
	"gpuresilience/internal/impact"
	"gpuresilience/internal/ingest"
	"gpuresilience/internal/report"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/stats"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

const (
	// ladderIters is how many traced iterations each ladder runs; a
	// layer's time is its median over them.
	ladderIters = 5
	// wallOps is how many untraced operations give a workload's wall time.
	wallOps = 5
	// httpTraceCalls is how many handler calls of each kind (200 and 304)
	// one daemon-http ladder iteration times: over the iterations, enough
	// for a p99 with ten samples beyond it.
	httpTraceCalls = 200
)

// span is one timed call into a layer, recorded from the benchmark's side.
type span struct {
	ID int `json:"id"`
	// Trace names the ladder and its iteration, e.g. "sim-e2e/0"; every
	// span of one traced iteration shares it.
	Trace      string `json:"trace"`
	Name       string `json:"name"`
	Parent     int    `json:"parent"` // 0 for the root of a trace
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer records spans in memory; they are written out when the run ends.
// A nil tracer runs every call untimed. It is not safe for concurrent use.
type tracer struct {
	epoch  time.Time
	spans  []span
	open   []int            // indexes of the spans not yet ended, innermost last
	roots  map[string]int   // traces started per root name
	counts map[string]int64 // work counts, keyed "<trace root>/<name>"
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), roots: map[string]int{}, counts: map[string]int64{}} //lint:allow determinism the benchmark measures wall time
}

// do runs fn inside a span named name. A span begun with no span open is
// the root of a new trace.
func (t *tracer) do(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	s := span{ID: len(t.spans) + 1, Name: name}
	if n := len(t.open); n > 0 {
		parent := t.spans[t.open[n-1]]
		s.Parent, s.Trace = parent.ID, parent.Trace
	} else {
		s.Trace = name + "/" + strconv.Itoa(t.roots[name])
		t.roots[name]++
	}
	i := len(t.spans)
	t.spans = append(t.spans, s)
	t.open = append(t.open, i)
	a0 := allocated()
	t.spans[i].Start = int64(time.Since(t.epoch)) //lint:allow determinism the benchmark measures wall time
	err := fn()
	t.spans[i].End = int64(time.Since(t.epoch)) //lint:allow determinism the benchmark measures wall time
	t.spans[i].AllocBytes = allocated() - a0
	t.open = t.open[:len(t.open)-1]
	return err
}

// count records a unit of work done inside the innermost open trace.
func (t *tracer) count(name string, n int64) {
	if t == nil || len(t.open) == 0 {
		return
	}
	root := t.spans[t.open[0]]
	t.counts[strings.SplitN(root.Trace, "/", 2)[0]+"/"+name] = n
}

// traceDoc is what a traced run writes to trace.json.
type traceDoc struct {
	Provenance provenance `json:"provenance"`
	// Workload is the workload the run was invoked for; every ladder is
	// traced regardless, since each layer has one ladder that times it.
	Workload string `json:"workload"`
	// WallS is each workload's untraced median operation time, the
	// denominator of its layers' shares.
	WallS map[string]float64 `json:"wall_s"`
	// OpsPerTrace is how many of a workload's operations one traced
	// iteration performs: one, except for the daemon-http requests.
	OpsPerTrace map[string]int   `json:"ops_per_trace"`
	Counts      map[string]int64 `json:"counts"`
	Spans       []span           `json:"spans"`
}

// traceAll measures each workload briefly untraced, for its wall time, then
// runs its traced ladder, and finally the "parts" trace that splits the
// pipeline's inner stages into their own calls.
func traceAll(e *env, workload string) (*traceDoc, error) {
	tr := newTracer()
	doc := &traceDoc{
		Provenance:  provenanceNow(e.seed),
		Workload:    workload,
		WallS:       map[string]float64{},
		OpsPerTrace: map[string]int{"daemon-http": 2 * httpTraceCalls},
	}
	for _, w := range workloads {
		st, err := w.measure(e, 0, wallOps)
		if err != nil {
			return nil, err
		}
		doc.WallS[w.name] = median(sorted(st.opMS)) / 1e3
		for i := 0; i < ladderIters; i++ {
			if err := tr.do(w.name, func() error { return w.ladder(e, tr) }); err != nil {
				return nil, fmt.Errorf("%s ladder: %w", w.name, err)
			}
		}
	}
	for i := 0; i < ladderIters; i++ {
		if err := tr.do("parts", func() error { return ladderParts(e, tr) }); err != nil {
			return nil, fmt.Errorf("parts ladder: %w", err)
		}
	}
	doc.Spans, doc.Counts = tr.spans, tr.counts
	return doc, nil
}

// ladderSim splits simulate→tables into its layers, run one after another
// (core.EndToEnd overlaps Stage I with the simulation through a pipe).
func ladderSim(e *env, tr *tracer) error {
	var truth *cluster.Result
	if err := tr.do("cluster.run", func() error {
		sim, err := cluster.New(calib.NewScenario(e.seed, e.scale).Cluster)
		if err != nil {
			return err
		}
		truth, err = sim.Run()
		return err
	}); err != nil {
		return err
	}
	tr.count("cluster.events", int64(len(truth.Events)))
	tr.count("cluster.jobs", int64(len(truth.Jobs)))
	var log bytes.Buffer
	if err := tr.do("syslog.emit", func() error {
		w, err := syslog.NewWriter(&log, syslog.DefaultWriterConfig(), e.seed)
		if err != nil {
			return err
		}
		for _, ev := range truth.Events {
			if _, err := w.WriteEvent(ev); err != nil {
				return err
			}
		}
		return w.Flush()
	}); err != nil {
		return err
	}
	tr.count("syslog.bytes", int64(log.Len()))
	var lenErr error
	if log.Len() != e.in.logLen {
		lenErr = fmt.Errorf("sim-e2e ladder: emitted %d log bytes, set-up %d", log.Len(), e.in.logLen)
	}
	e.t.check(lenErr)
	var events []xid.Event
	if err := tr.do("syslog.extract", func() error {
		_, err := syslog.ExtractParallel(bytes.NewReader(log.Bytes()), e.cfg.Workers, func(ev xid.Event) error {
			events = append(events, ev)
			return nil
		})
		return err
	}); err != nil {
		return err
	}
	var res *core.Results
	if err := tr.do("core.analyze", func() (err error) {
		res, err = core.Analyze(events, truth.Jobs, cluster.Durations(truth.Downtimes), truth.CPU, e.cfg)
		return err
	}); err != nil {
		return err
	}
	var out bytes.Buffer
	if err := tr.do("report.render", func() error { return report.WriteAll(&out, res) }); err != nil {
		return err
	}
	e.t.check(expect("sim-e2e ladder: tables", out.Bytes(), e.simOut))
	return nil
}

// ladderLogs runs the layers core.AnalyzeLogFiles chains, as separate
// calls: plan, sharded Stage I (through cache), job database, analysis.
func ladderLogs(e *env, tr *tracer, cacheDir string, withJobs bool) (*core.Results, error) {
	var plan ingest.Plan
	if err := tr.do("ingest.plan", func() (err error) {
		plan, err = ingest.PlanFiles([]string{e.in.logsDir})
		return err
	}); err != nil {
		return nil, err
	}
	var ext *ingest.Result
	if err := tr.do("ingest.extract", func() (err error) {
		ext, err = ingest.Extract(plan, ingest.Options{Workers: e.cfg.Workers, Cache: ingest.NewCache(cacheDir)})
		return err
	}); err != nil {
		return nil, err
	}
	tr.count("ingest.shards", int64(len(ext.Shards)))
	tr.count("ingest.cache_hits", int64(cacheHits(ext.Shards)))
	var jobs []*slurmsim.Job
	var repairs []time.Duration
	if withJobs {
		if err := tr.do("slurmsim.load", func() error {
			f, err := os.Open(e.in.jobsPath)
			if err != nil {
				return err
			}
			defer f.Close()
			jobs, err = slurmsim.LoadDB(f)
			return err
		}); err != nil {
			return nil, err
		}
		repairs = e.in.repairs
	}
	var res *core.Results
	err := tr.do("core.analyze", func() (err error) {
		res, err = core.Analyze(ext.Events, jobs, repairs, e.in.cpu, e.cfg)
		return err
	})
	return res, err
}

func ladderLogsCold(e *env, tr *tracer) error {
	if err := os.RemoveAll(e.in.coldCache); err != nil {
		return err
	}
	res, err := ladderLogs(e, tr, e.in.coldCache, true)
	if err != nil {
		return err
	}
	var out bytes.Buffer
	if err := tr.do("report.render", func() error { return report.WriteAll(&out, res) }); err != nil {
		return err
	}
	e.t.check(expect("logs-cold ladder: tables", out.Bytes(), e.ref.all))
	return nil
}

func ladderLogsWarm(e *env, tr *tracer) error {
	res, err := ladderLogs(e, tr, e.in.warmCache, false)
	if err != nil {
		return err
	}
	var out bytes.Buffer
	if err := tr.do("report.render", func() error { return report.WriteTableI(&out, res) }); err != nil {
		return err
	}
	e.t.check(expect("logs-warm ladder: Table I", out.Bytes(), e.ref.tableI))
	return nil
}

func ladderIngest(e *env, tr *tracer) error {
	srv, err := replay(e, tr)
	if err != nil {
		return err
	}
	e.t.check(checkSnapshot(srv.Latest(), e.ref))
	return nil
}

// ladderHTTP calls the daemon's handler directly, without TCP, so its
// spans hold only the server's own work.
func ladderHTTP(e *env, tr *tracer) error {
	h := e.server.Handler()
	targets := httpTargets(e.server.Latest())
	etags := make([]string, len(targets))
	for k := 0; k < 2*httpTraceCalls; k++ {
		i := (k / 2) % len(targets)
		req := httptest.NewRequest(http.MethodGet, targets[i].path, nil)
		name, want := "stream.http200", http.StatusOK
		if k%2 == 1 {
			req.Header.Set("If-None-Match", etags[i])
			name, want = "stream.http304", http.StatusNotModified
		}
		rec := httptest.NewRecorder()
		_ = tr.do(name, func() error { h.ServeHTTP(rec, req); return nil })
		var err error
		switch {
		case rec.Code != want:
			err = fmt.Errorf("daemon-http ladder: GET %s: status %d, want %d", targets[i].path, rec.Code, want)
		case want == http.StatusOK && !bytes.Equal(rec.Body.Bytes(), targets[i].body):
			err = fmt.Errorf("daemon-http ladder: GET %s: body differs from the published document", targets[i].path)
		case want == http.StatusOK:
			etags[i] = rec.Header().Get("ETag")
		}
		e.t.check(err)
	}
	return nil
}

// ladderParts times the stages inside single pipeline calls — Stage I at
// one worker, Stage II, each Stage III analysis, and the cache's load,
// decode and encode per shard — on the same inputs the workloads use.
func ladderParts(e *env, tr *tracer) error {
	var log []byte
	for _, p := range e.in.shardPaths() {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		log = append(log, data...)
	}
	var events []xid.Event
	if err := tr.do("syslog.extract_w1", func() error {
		_, err := syslog.ExtractParallel(bytes.NewReader(log), 1, func(ev xid.Event) error {
			events = append(events, ev)
			return nil
		})
		return err
	}); err != nil {
		return err
	}
	tr.count("syslog.bytes", int64(len(log)))
	var coalesced []xid.Event
	if err := tr.do("coalesce.events", func() (err error) {
		coalesced, err = coalesce.EventsParallel(events, e.cfg.CoalesceWindow, e.cfg.Workers)
		return err
	}); err != nil {
		return err
	}
	tr.count("coalesce.in", int64(len(events)))
	tr.count("coalesce.out", int64(len(coalesced)))
	if err := tr.do("impact.correlate", func() error {
		_, err := impact.Correlate(e.jobs, coalesced, impact.Config{
			AttributionWindow: e.cfg.AttributionWindow, Period: e.cfg.Op, Workers: e.cfg.Workers,
		})
		return err
	}); err != nil {
		return err
	}
	_ = tr.do("impact.table3", func() error {
		impact.TableIII(e.jobs)
		impact.ComputeJobStats(e.jobs, e.in.cpu.Total, e.in.cpu.Succeeded)
		return nil
	})
	full := stats.Period{Name: "characterization", Start: e.cfg.PreOp.Start, End: e.cfg.Op.End}
	// The error count only scales the MTTF estimate; the work is the same.
	if err := tr.do("avail.analyze", func() error {
		_, err := avail.Analyze(e.in.repairs, avail.DefaultConfig(full, e.cfg.Nodes, len(coalesced)))
		return err
	}); err != nil {
		return err
	}
	return cacheParts(e, tr)
}

// cacheParts times the cache's pieces shard by shard on the warm cache:
// the source digest a lookup needs, the lookup, the decode alone, and the
// encode a cold run pays on the way back in.
func cacheParts(e *env, tr *tracer) error {
	cache := ingest.NewCache(e.in.warmCache)
	entries, err := filepath.Glob(filepath.Join(e.in.warmCache, "*.evshard"))
	if err != nil {
		return err
	}
	var payloads []*ingest.Payload
	for _, p := range e.in.shardPaths() {
		var sum [sha256.Size]byte
		if err := tr.do("ingest.hash", func() error {
			data, err := os.ReadFile(p)
			sum = sha256.Sum256(data)
			return err
		}); err != nil {
			return err
		}
		var outcome ingest.CacheOutcome
		_ = tr.do("ingest.cache_load", func() error {
			var pl *ingest.Payload
			pl, outcome = cache.Load(p, sum)
			payloads = append(payloads, pl)
			return nil
		})
		if outcome != ingest.CacheHit {
			return fmt.Errorf("cache entry of %s: %v", p, outcome)
		}
	}
	for _, name := range entries {
		data, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		if err := tr.do("ingest.decode", func() error {
			_, err := ingest.DecodeShard(data)
			return err
		}); err != nil {
			return err
		}
	}
	for _, pl := range payloads {
		_ = tr.do("ingest.encode", func() error { ingest.EncodeShard(pl); return nil })
	}
	return nil
}

// selfSeconds is each span's duration minus the part of it its children
// cover, indexed like spans.
func selfSeconds(spans []span) []float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// layer aggregates the spans of one name over every trace of one ladder.
type layer struct {
	name  string
	calls int       // calls per traced iteration
	self  float64   // median over the iterations of their summed self time, s
	alloc float64   // median over the iterations of their allocation, bytes
	durs  []float64 // every call's duration, s
	// per-trace sums the medians are taken over
	selfBy, allocBy map[string]float64
}

// ladderOf groups the traces of root by span name, in first-call order,
// leaving out the root spans themselves.
func ladderOf(doc *traceDoc, self []float64, root string) []*layer {
	var out []*layer
	byName := map[string]*layer{}
	traces := map[string]bool{}
	for i, s := range doc.Spans {
		if !strings.HasPrefix(s.Trace, root+"/") {
			continue
		}
		traces[s.Trace] = true
		if s.Parent == 0 {
			continue
		}
		l := byName[s.Name]
		if l == nil {
			l = &layer{name: s.Name, selfBy: map[string]float64{}, allocBy: map[string]float64{}}
			byName[s.Name] = l
			out = append(out, l)
		}
		l.calls++
		l.selfBy[s.Trace] += self[i]
		l.allocBy[s.Trace] += float64(s.AllocBytes)
		l.durs = append(l.durs, s.seconds())
	}
	for _, l := range out {
		l.calls /= len(traces)
		l.self = median(sorted(values(l.selfBy)))
		l.alloc = median(sorted(values(l.allocBy)))
	}
	return out
}

func values(m map[string]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// rootSeconds is the median duration of root's traces.
func rootSeconds(doc *traceDoc, root string) float64 {
	var d []float64
	for _, s := range doc.Spans {
		if s.Parent == 0 && strings.HasPrefix(s.Trace, root+"/") {
			d = append(d, s.seconds())
		}
	}
	return median(sorted(d))
}

// writeLadder prints, per ladder, each layer's self time per operation and
// its share of the workload's untraced wall time per operation. Coverage
// is the layers' summed share: above 1 where the real path overlaps layers
// (core.EndToEnd's pipe, the concurrent job-database load), below 1 where
// work falls outside them (TCP and the client, for daemon-http).
func writeLadder(w io.Writer, doc *traceDoc) {
	self := selfSeconds(doc.Spans)
	for _, root := range append(workloadNames(), "parts") {
		layers := ladderOf(doc, self, root)
		if len(layers) == 0 {
			continue
		}
		ops := float64(max(1, doc.OpsPerTrace[root]))
		wall, ok := doc.WallS[root]
		basis := "untraced wall"
		if !ok {
			wall, basis = rootSeconds(doc, root), "trace root"
		}
		total := 0.0
		for _, l := range layers {
			total += l.self / ops
		}
		fmt.Fprintf(w, "\nladder %s: %s %.6f s per op, layers cover %.1f%%\n", root, basis, wall, 100*total/wall)
		if cov := total / wall; ok && (cov < 0.9 || cov > 1.1) {
			fmt.Fprintf(w, "  note: coverage outside [0.9, 1.1]: layers overlap or work falls outside them\n")
		}
		fmt.Fprintf(w, "  %-22s %6s %12s %8s %12s\n", "layer", "calls", "self_s/op", "share", "alloc_mb/op")
		for _, l := range layers {
			fmt.Fprintf(w, "  %-22s %6d %12.6f %7.1f%% %12.3f\n",
				l.name, l.calls, l.self/ops, 100*l.self/ops/wall, l.alloc/ops/1e6)
		}
		var keys []string
		for k := range doc.Counts {
			if strings.HasPrefix(k, root+"/") {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  count %-30s %d\n", strings.TrimPrefix(k, root+"/"), doc.Counts[k])
		}
	}
}

// runLadder is `gpubench ladder trace.json`.
func runLadder(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ladder", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "gpubench: usage: gpubench ladder trace.json")
		return 2
	}
	var doc traceDoc
	if err := readJSON(fs.Arg(0), &doc); err != nil {
		fmt.Fprintf(stderr, "gpubench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "trace of %s  %s\n", doc.Workload, doc.Provenance)
	writeLadder(stdout, &doc)
	return 0
}

// layerMetrics derives the per-layer metrics BENCHMARK.json lists from a
// trace.
func layerMetrics(doc *traceDoc) map[string]summary {
	self := selfSeconds(doc.Spans)
	ladders := map[string][]*layer{}
	find := func(root, name string) *layer {
		if ladders[root] == nil {
			ladders[root] = ladderOf(doc, self, root)
		}
		for _, l := range ladders[root] {
			if l.name == name {
				return l
			}
		}
		return &layer{}
	}
	sum := func(root, name string) float64 { return find(root, name).self }
	mb := func(root, name string) float64 { return float64(doc.Counts[root+"/"+name]) / 1e6 }
	med := func(root, name string) float64 { return median(sorted(find(root, name).durs)) }
	http := append(append([]float64(nil), find("daemon-http", "stream.http200").durs...), find("daemon-http", "stream.http304").durs...)

	v := map[string]float64{
		"cluster.run_s":           sum("sim-e2e", "cluster.run"),
		"cluster.alloc_mb":        find("sim-e2e", "cluster.run").alloc / 1e6,
		"syslog.emit_s":           sum("sim-e2e", "syslog.emit"),
		"syslog.emit_mb_per_s":    mb("sim-e2e", "syslog.bytes") / sum("sim-e2e", "syslog.emit"),
		"syslog.extract_s":        sum("sim-e2e", "syslog.extract"),
		"syslog.extract_mb_per_s": mb("sim-e2e", "syslog.bytes") / sum("sim-e2e", "syslog.extract"),
		"syslog.extract_w1_s":     sum("parts", "syslog.extract_w1"),
		"slurmsim.load_s":         sum("logs-cold", "slurmsim.load"),
		"ingest.plan_s":           sum("logs-warm", "ingest.plan"),
		"ingest.extract_cold_s":   sum("logs-cold", "ingest.extract"),
		"ingest.extract_warm_s":   sum("logs-warm", "ingest.extract"),
		"ingest.hash_s":           sum("parts", "ingest.hash"),
		"ingest.cache_load_s":     sum("parts", "ingest.cache_load"),
		"ingest.decode_s":         sum("parts", "ingest.decode"),
		"ingest.encode_s":         sum("parts", "ingest.encode"),
		"coalesce.events_s":       sum("parts", "coalesce.events"),
		"core.analyze_s":          sum("logs-cold", "core.analyze"),
		"core.analyze_nojobs_s":   sum("logs-warm", "core.analyze"),
		"impact.correlate_s":      sum("parts", "impact.correlate"),
		"impact.table3_s":         sum("parts", "impact.table3"),
		"avail.analyze_s":         sum("parts", "avail.analyze"),
		"report.render_s":         sum("logs-cold", "report.render"),
		"stream.consume_s":        sum("daemon-ingest", "stream.consume"),
		"stream.consume_ns_per_line": 1e9 * sum("daemon-ingest", "stream.consume") /
			float64(doc.Counts["daemon-ingest/stream.lines"]),
		"stream.advance_s":      sum("daemon-ingest", "stream.advance") + sum("daemon-ingest", "stream.flush"),
		"stream.open_state_max": float64(doc.Counts["daemon-ingest/stream.open_state_max"]),
		"stream.snapshot_s":     sum("daemon-ingest", "stream.snapshot"),
		"stream.snapshot_ms":    1e3 * med("daemon-ingest", "stream.snapshot"),
		"stream.http200_us":     1e6 * med("daemon-http", "stream.http200"),
		"stream.http304_us":     1e6 * med("daemon-http", "stream.http304"),
		"stream.http_us_p99":    1e6 * percentile(sorted(http), 0.99),
	}
	out := make(map[string]summary, len(v))
	for name, val := range v {
		out[name] = summarize([]float64{val}, layerUnit(name))
	}
	return out
}

// layerUnit is a per-layer metric's unit, read off its name's suffix.
func layerUnit(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_mb_per_s", "MB/s"}, {"_ns_per_line", "ns"}, {"_mb", "MB"}, {"_ms", "ms"},
		{"_us", "us"}, {"_us_p99", "us"}, {"_s", "s"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}
