// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus the ablations called out in DESIGN.md.
//
// The full-scale dataset (1.45M jobs, ~57k errors, ~1.2M raw log lines) is
// simulated once and shared; per-table benchmarks measure the analysis and
// rendering stages over it, so `-bench Table` re-derives each artifact from
// raw data every iteration. BenchmarkEndToEnd measures the whole
// simulate->log->extract->analyze path at the shared scale (perf-gated at
// 5%); GPURESIL_BENCH_SCALE=0.02 -bench 'EndToEnd$' runs it at 2% scale.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Set GPURESIL_BENCH_SCALE to lower the shared-dataset scale (default 1.0)
// for quick runs, e.g. GPURESIL_BENCH_SCALE=0.05.
package gpuresilience_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/checkpoint"
	"gpuresilience/internal/cluster"
	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/core"
	"gpuresilience/internal/correlation"
	"gpuresilience/internal/impact"
	"gpuresilience/internal/ingest"
	"gpuresilience/internal/report"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/stream"
	"gpuresilience/internal/survival"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/workload"
	"gpuresilience/internal/xid"
)

var (
	benchOnce sync.Once
	benchData *core.EndToEndResult
	benchErr  error
)

func benchScale() float64 {
	if s := os.Getenv("GPURESIL_BENCH_SCALE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return 1.0
}

// dataset simulates the calibrated Delta reproduction once.
func dataset(b *testing.B) *core.EndToEndResult {
	b.Helper()
	benchOnce.Do(func() {
		sc := calib.NewScenario(1, benchScale())
		start := time.Now()
		benchData, benchErr = core.EndToEnd(core.EndToEndConfig{
			Cluster:       sc.Cluster,
			Pipeline:      core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes),
			KeepRawEvents: true,
		})
		if benchErr == nil {
			fmt.Fprintf(os.Stderr, "[bench] shared dataset: scale %.2f, %d events, %d jobs, %v\n",
				benchScale(), len(benchData.Truth.Events), len(benchData.Truth.Jobs),
				time.Since(start).Round(time.Millisecond))
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchData
}

func pipelineCfg() core.PipelineConfig {
	return core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes)
}

// BenchmarkTableI regenerates Table I (per-XID counts and MTBEs for both
// periods) from the raw event stream: coalesce + per-period statistics +
// rendering.
func BenchmarkTableI(b *testing.B) {
	d := dataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Analyze(d.Truth.Events, nil, nil, workload.CPURecord{}, pipelineCfg())
		if err != nil {
			b.Fatal(err)
		}
		if err := report.WriteTableI(io.Discard, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII regenerates Table II (job failure probability per XID):
// the 20-second-window correlation of 1.45M jobs with the coalesced errors.
func BenchmarkTableII(b *testing.B) {
	d := dataset(b)
	events, err := coalesce.Events(d.Truth.Events, coalesce.DefaultWindow)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cor, err := impact.Correlate(d.Truth.Jobs, events, impact.DefaultConfig(calib.Op()))
		if err != nil {
			b.Fatal(err)
		}
		if len(cor.Rows) == 0 && benchScale() >= 0.5 {
			b.Fatal("no Table II rows at full scale")
		}
	}
}

// BenchmarkTableIII regenerates Table III (job distribution, elapsed-time
// statistics, and ML/non-ML GPU hours per GPU-count bucket).
func BenchmarkTableIII(b *testing.B) {
	d := dataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := impact.TableIII(d.Truth.Jobs)
		if len(rows) != 8 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFigure2 regenerates the unavailability-time distribution and the
// §V-C availability numbers from the repair ledger.
func BenchmarkFigure2(b *testing.B) {
	d := dataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Analyze(d.Truth.Events, nil, repairDurations(d), workload.CPURecord{}, pipelineCfg())
		if err != nil {
			b.Fatal(err)
		}
		if err := report.WriteFigure2(io.Discard, res); err != nil {
			b.Fatal(err)
		}
	}
}

func repairDurations(d *core.EndToEndResult) []time.Duration {
	out := make([]time.Duration, len(d.Truth.Downtimes))
	for i, dt := range d.Truth.Downtimes {
		out[i] = dt.Duration()
	}
	return out
}

// BenchmarkJobStats regenerates the §V-A job statistics (success rates and
// GPU-count shares).
func BenchmarkJobStats(b *testing.B) {
	d := dataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := impact.ComputeJobStats(d.Truth.Jobs, d.Truth.CPU.Total, d.Truth.CPU.Succeeded)
		if st.GPUTotal == 0 {
			b.Fatal("no jobs")
		}
	}
}

// BenchmarkAvailability regenerates the headline availability figure
// (MTTF/(MTTF+MTTR)) end to end from events + repairs.
func BenchmarkAvailability(b *testing.B) {
	d := dataset(b)
	repairs := repairDurations(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Analyze(d.Truth.Events, nil, repairs, workload.CPURecord{}, pipelineCfg())
		if err != nil {
			b.Fatal(err)
		}
		if res.Avail.Availability <= 0 {
			b.Fatal("no availability")
		}
	}
}

// BenchmarkNVLink regenerates finding (iv): the NVLink propagation fraction
// and job-survival split.
func BenchmarkNVLink(b *testing.B) {
	d := dataset(b)
	events, err := coalesce.Events(d.Truth.Events, coalesce.DefaultWindow)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cor, err := impact.Correlate(d.Truth.Jobs, events, impact.DefaultConfig(calib.Op()))
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := cor.Row(xid.NVLink); !ok && benchScale() >= 0.5 {
			b.Fatal("no NVLink row")
		}
	}
}

// BenchmarkBurstCoalesce regenerates finding (v)'s headline number: the
// >1M-raw-line uncontained burst collapsing to ~38,900 coalesced errors.
// It coalesces the full line-level Stage I output.
func BenchmarkBurstCoalesce(b *testing.B) {
	d := dataset(b)
	b.ResetTimer()
	var kept int
	for i := 0; i < b.N; i++ {
		events, err := coalesce.Events(d.RawEvents, coalesce.DefaultWindow)
		if err != nil {
			b.Fatal(err)
		}
		kept = len(events)
	}
	b.ReportMetric(float64(len(d.RawEvents)), "raw-lines")
	b.ReportMetric(float64(kept), "errors")
}

// BenchmarkCoalesceWindowSweep is ablation A1: coalesced error counts over
// the line-level stream under windows from 0 (count every log line, the
// over-counting §III-B warns about) to 5 minutes.
func BenchmarkCoalesceWindowSweep(b *testing.B) {
	d := dataset(b)
	for _, window := range []time.Duration{0, time.Second, 5 * time.Second,
		30 * time.Second, time.Minute, 5 * time.Minute} {
		window := window
		b.Run(window.String(), func(b *testing.B) {
			var kept int
			for i := 0; i < b.N; i++ {
				events, err := coalesce.Events(d.RawEvents, window)
				if err != nil {
					b.Fatal(err)
				}
				kept = len(events)
			}
			b.ReportMetric(float64(kept), "errors")
		})
	}
}

// BenchmarkAttributionWindowSweep is ablation A2: Table II's total
// GPU-failed jobs under attribution windows from 1s to 120s (the paper uses
// 20s).
func BenchmarkAttributionWindowSweep(b *testing.B) {
	d := dataset(b)
	events, err := coalesce.Events(d.Truth.Events, coalesce.DefaultWindow)
	if err != nil {
		b.Fatal(err)
	}
	for _, window := range []time.Duration{time.Second, 5 * time.Second,
		20 * time.Second, 60 * time.Second, 120 * time.Second} {
		window := window
		b.Run(window.String(), func(b *testing.B) {
			var failed int
			for i := 0; i < b.N; i++ {
				cor, err := impact.Correlate(d.Truth.Jobs, events, impact.Config{
					AttributionWindow: window,
					Period:            calib.Op(),
				})
				if err != nil {
					b.Fatal(err)
				}
				failed = cor.TotalGPUFailedJobs
			}
			b.ReportMetric(float64(failed), "gpu-failed-jobs")
		})
	}
}

// BenchmarkSurvivalFit fits the Weibull inter-error-gap model over the full
// dataset (the Titan-style survival extension).
func BenchmarkSurvivalFit(b *testing.B) {
	d := dataset(b)
	events, err := coalesce.Events(d.Truth.Events, coalesce.DefaultWindow)
	if err != nil {
		b.Fatal(err)
	}
	gaps := survival.InterEventHours(events, nil)
	if len(gaps) < 3 {
		b.Fatal("not enough gaps")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := survival.FitWeibull(gaps)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(w.Shape, "weibull-shape")
		}
	}
}

// BenchmarkCheckpointSweep evaluates the §V-B checkpoint what-if over the
// full job population at five intervals.
func BenchmarkCheckpointSweep(b *testing.B) {
	d := dataset(b)
	intervals := []time.Duration{30 * time.Minute, time.Hour, 4 * time.Hour,
		12 * time.Hour, 24 * time.Hour}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs, err := checkpoint.Sweep(d.Truth.Jobs, intervals, time.Minute, 5*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if len(outs) != len(intervals) {
			b.Fatal("sweep truncated")
		}
	}
}

// BenchmarkConcentration computes node-level error concentration (the
// spatial-correlation extension).
func BenchmarkConcentration(b *testing.B) {
	d := dataset(b)
	events, err := coalesce.Events(d.Truth.Events, coalesce.DefaultWindow)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nc, err := correlation.ConcentrationByNode(events, calib.Nodes)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(nc.Gini, "gini")
		}
	}
}

// BenchmarkEndToEnd measures the whole reproduction path — simulate, emit
// raw logs, extract, coalesce, characterize — at the shared benchmark
// scale (1.0 by default, so a plain run is the full-scale number the
// ROADMAP tracks; GPURESIL_BENCH_SCALE lowers it, and the perf gate runs
// it at 5% alongside the hot-path set).
func BenchmarkEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := calib.NewScenario(uint64(i+1), benchScale())
		out, err := core.EndToEnd(core.EndToEndConfig{
			Cluster:  sc.Cluster,
			Pipeline: pipelineCfg(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if out.Results.CoalescedEvents == 0 {
			b.Fatal("no events")
		}
	}
}

// BenchmarkClusterRun is the sim-loop layer of BenchmarkEndToEnd: build and
// run the calibrated seed-1 fleet at the shared benchmark scale with no
// event sink, so no raw log is written.
func BenchmarkClusterRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim, err := cluster.New(calib.NewScenario(1, benchScale()).Cluster)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Jobs) == 0 {
			b.Fatal("no jobs")
		}
	}
}

// BenchmarkQuotaVsRateVariance is the quota-vs-rate sampling ablation:
// across seeds, quota mode reproduces the calibrated error total exactly
// (up to cascade randomness), while rate mode adds Poisson count variance.
// Reported metrics are the coefficient of variation (%) of total coalesced
// errors in each mode over 6 seeds at 2% scale.
func BenchmarkQuotaVsRateVariance(b *testing.B) {
	run := func(seed uint64, rate bool) int {
		sc := calib.NewScenario(seed, 0.02)
		if rate {
			sc = sc.RateMode(seed)
		}
		sc.Cluster.Workload = nil
		out, err := core.EndToEnd(core.EndToEndConfig{
			Cluster:  sc.Cluster,
			Pipeline: pipelineCfg(),
		})
		if err != nil {
			b.Fatal(err)
		}
		return out.Results.CoalescedEvents
	}
	cv := func(xs []float64) float64 {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			d := x - mean
			ss += d * d
		}
		return 100 * (ss / float64(len(xs)-1)) / (mean * mean)
	}
	for i := 0; i < b.N; i++ {
		var quota, rate []float64
		for seed := uint64(1); seed <= 6; seed++ {
			quota = append(quota, float64(run(seed, false)))
			rate = append(rate, float64(run(seed, true)))
		}
		if i == 0 {
			b.ReportMetric(cv(quota), "quota-var%")
			b.ReportMetric(cv(rate), "rate-var%")
		}
	}
}

var (
	rawOnce     sync.Once
	rawLogData  []byte
	rawJobsData []byte
	rawErr      error
)

// rawDataset re-emits the shared dataset's raw log bytes and sacct dump
// once, so the parallel-pipeline benchmarks measure analysis from raw bytes
// (the tool-facing path) without re-simulating.
func rawDataset(b *testing.B) ([]byte, []byte) {
	d := dataset(b)
	rawOnce.Do(func() {
		var logBuf writeCounter
		w, err := syslog.NewWriter(&logBuf, syslog.DefaultWriterConfig(), 1)
		if err != nil {
			rawErr = err
			return
		}
		for _, ev := range d.Truth.Events {
			if _, err := w.WriteEvent(ev); err != nil {
				rawErr = err
				return
			}
		}
		if rawErr = w.Flush(); rawErr != nil {
			return
		}
		rawLogData = logBuf.data
		var jobBuf writeCounter
		if rawErr = slurmsim.DumpDB(&jobBuf, d.Truth.Jobs); rawErr != nil {
			return
		}
		rawJobsData = jobBuf.data
	})
	if rawErr != nil {
		b.Fatal(rawErr)
	}
	return rawLogData, rawJobsData
}

// benchWorkerCounts are the -workers settings the parallel benchmarks
// sweep. The sweep is fixed — not derived from GOMAXPROCS — so the perf
// gate's committed baseline carries the same entries on every machine:
// the sequential baseline, a typical laptop core count, and an
// oversubscribed setting that exercises the sharding overhead. Output is
// byte-identical at every point; only the timing differs.
func benchWorkerCounts() []int {
	return []int{1, 4, 16}
}

// BenchmarkExtractParallel measures sharded Stage I throughput over the raw
// log bytes at each worker count; workers=1 is the sequential scanner
// baseline the speedup is judged against.
func BenchmarkExtractParallel(b *testing.B) {
	logs, _ := rawDataset(b)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(logs)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				events := 0
				st, err := syslog.ExtractParallel(newByteReader(logs), workers,
					func(xid.Event) error { events++; return nil })
				if err != nil {
					b.Fatal(err)
				}
				if events == 0 || st.XIDLines != events {
					b.Fatalf("events=%d stats=%+v", events, st)
				}
			}
		})
	}
}

// BenchmarkShardedExtract measures the multi-file front end over the raw
// dataset split into 8 shard files. /cold parses every shard through the
// pooled Stage I scanners and concatenates the streams; /warm replays the
// same plan against a populated .evshard cache, so its cost is dominated
// by columnar decode — the ratio to /cold is the payoff of the cache on
// repeat analyses.
func BenchmarkShardedExtract(b *testing.B) {
	logs, _ := rawDataset(b)
	dir := b.TempDir()
	lines := bytes.SplitAfter(logs, []byte("\n"))
	const shards = 8
	per := (len(lines) + shards - 1) / shards
	for i := 0; i < shards; i++ {
		lo, hi := i*per, (i+1)*per
		if lo > len(lines) {
			lo = len(lines)
		}
		if hi > len(lines) {
			hi = len(lines)
		}
		name := filepath.Join(dir, fmt.Sprintf("shard_%03d.log", i))
		if err := os.WriteFile(name, bytes.Join(lines[lo:hi], nil), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	plan, err := ingest.PlanFiles([]string{dir})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, cache *ingest.Cache) {
		b.SetBytes(int64(len(logs)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := ingest.Extract(plan, ingest.Options{Workers: 8, Cache: cache})
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Events) == 0 {
				b.Fatal("no events")
			}
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, nil) })
	b.Run("warm", func(b *testing.B) {
		cache := ingest.NewCache(b.TempDir())
		if _, err := ingest.Extract(plan, ingest.Options{Workers: 8, Cache: cache}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, cache)
	})
}

// BenchmarkPipelineParallel measures the whole analysis path from raw bytes
// — sharded extraction, coalescing, and Stage III with its sharded Table
// II job scan (Tables I-III) — at each worker count. The workers=1 case is the
// sequential pipeline; the ratio to it is the headline speedup tracked in
// the perf trajectory (target >=3x on 8 cores at scale 1.0).
func BenchmarkPipelineParallel(b *testing.B) {
	logs, jobs := rawDataset(b)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(logs) + len(jobs)))
			b.ReportAllocs()
			cfg := pipelineCfg()
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				res, err := core.AnalyzeLogs(newByteReader(logs), newByteReader(jobs),
					nil, workload.CPURecord{}, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.CoalescedEvents == 0 {
					b.Fatal("no events")
				}
			}
		})
	}
}

// BenchmarkStageIExtract measures raw-log parsing throughput (lines/sec).
func BenchmarkStageIExtract(b *testing.B) {
	ev := xid.Event{
		Time: xid.Time(calib.Op().Start.Add(time.Hour).UnixNano()),
		Node: "gpub042", GPU: 2, Code: xid.NVLink, Detail: "link 1-2 CRC failure",
	}
	line := string(syslog.AppendLine(nil, ev, 4242, "python"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := syslog.ParseLine(line); !ok || err != nil {
			b.Fatal("parse failed")
		}
	}
}

// BenchmarkJobDBLoad measures sacct-database parsing throughput.
func BenchmarkJobDBLoad(b *testing.B) {
	d := dataset(b)
	n := len(d.Truth.Jobs)
	if n > 50000 {
		n = 50000
	}
	var buf writeCounter
	if err := slurmsim.DumpDB(&buf, d.Truth.Jobs[:n]); err != nil {
		b.Fatal(err)
	}
	data := buf.data
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs, err := slurmsim.LoadDB(newByteReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if len(jobs) != n {
			b.Fatalf("loaded %d jobs", len(jobs))
		}
	}
}

// BenchmarkStreamReplay measures the daemon path: the shared dataset's
// raw log replayed line by line through a fresh streaming engine in
// 4096-line batches, advancing the watermark after each batch, building a
// snapshot after every 8th and one more after the final flush. It is
// shaped like gpubench's daemon-ingest workload, so the perf gate holds
// online Stage I/II, sealing and the Stage III fold together.
func BenchmarkStreamReplay(b *testing.B) {
	const batch, snapshotEvery = 4096, 8
	d := dataset(b)
	logs, _ := rawDataset(b)
	lines := strings.Split(strings.TrimSuffix(string(logs), "\n"), "\n")
	cfg := stream.Config{
		Pipeline:  pipelineCfg(),
		Jobs:      d.Truth.Jobs,
		Downtimes: d.Truth.Downtimes,
		CPU:       d.Truth.CPU,
	}
	b.SetBytes(int64(len(logs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := stream.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for lo, n := 0, 0; lo < len(lines); lo += batch {
			for j, line := range lines[lo:min(lo+batch, len(lines))] {
				if err := eng.ConsumeLine("syslog", int64(lo+j+1), line); err != nil {
					b.Fatal(err)
				}
			}
			eng.Advance()
			if n++; n%snapshotEvery == 0 {
				if _, err := stream.BuildSnapshot(eng); err != nil {
					b.Fatal(err)
				}
			}
		}
		eng.FlushAll()
		snap, err := stream.BuildSnapshot(eng)
		if err != nil {
			b.Fatal(err)
		}
		if snap.Status.SealedEvents == 0 {
			b.Fatal("replay sealed no events")
		}
	}
}

type writeCounter struct{ data []byte }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

type byteReader struct {
	data []byte
	off  int
}

func newByteReader(data []byte) *byteReader { return &byteReader{data: data} }

// Len exposes the unread size so size-aware loaders (slurmsim.LoadDB) can
// presize, matching what bytes.Reader offers.
func (r *byteReader) Len() int { return len(r.data) - r.off }

func (r *byteReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}
