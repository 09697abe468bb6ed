// Package core is the study's characterization pipeline (Fig. 1) packaged
// end to end:
//
//	Stage I   — regex extraction of XID records from raw system logs
//	            (internal/syslog) and job records from the Slurm database
//	            (internal/slurmsim).
//	Stage II  — error coalescing with a Δt window (internal/coalesce).
//	Stage III — resilience statistics (Table I), job-impact correlation
//	            (Table II), workload statistics (Table III), and
//	            availability analysis (Figure 2).
//
// Analyze consumes parsed inputs; AnalyzeLogs runs Stage I first; EndToEnd
// runs the whole reproduction: simulate the cluster, emit raw logs, read
// them back, and characterize.
package core

import (
	"fmt"
	"io"
	"slices"
	"time"

	"gpuresilience/internal/avail"
	"gpuresilience/internal/cluster"
	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/impact"
	"gpuresilience/internal/ingest"
	"gpuresilience/internal/obs"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/stats"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/workload"
	"gpuresilience/internal/xid"
)

// PipelineConfig parameterizes the analysis stages.
type PipelineConfig struct {
	// CoalesceWindow is Stage II's Δt.
	CoalesceWindow time.Duration
	// AttributionWindow is Stage III's job-failure window.
	AttributionWindow time.Duration
	// PreOp and Op bound the paper's pre-operational and operational
	// study periods; every table is computed per period.
	PreOp stats.Period
	Op    stats.Period // see PreOp
	// Nodes is the per-node MTBE multiplier (106 on Delta).
	Nodes int
	// OutlierStreamFraction marks a (node, GPU, code) stream as an outlier
	// when it alone contributes more than this fraction of a period's
	// errors (and at least OutlierMinCount of them); outliers are excluded
	// from the headline per-node MTBE the way the SREs excluded the
	// 38,900-error faulty GPU. Zero disables outlier exclusion.
	OutlierStreamFraction float64
	// OutlierMinCount is the absolute floor below which a stream is never
	// an outlier, guarding small datasets.
	OutlierMinCount int
	// Workers bounds the pipeline's parallelism: sharded Stage I
	// extraction and Table II's job scan over in-memory jobs each use at
	// most this many goroutines; Stage II and the raw-logs path's one pass
	// over the job DB are sequential. 0 means GOMAXPROCS, 1 forces the
	// sequential path. Every table and figure is worker-count-invariant —
	// see docs/pipeline.md for the argument.
	Workers int
	// Lenient switches Stage I to corruption-tolerant extraction: damaged
	// lines are classified, quarantined, and skipped instead of failing the
	// run, and Results.Ingestion carries the structured report. See
	// docs/robustness.md for the taxonomy and the recovery guarantee.
	Lenient bool
	// MaxBadLines is the lenient mode's absolute error budget: more than
	// this many corrupt lines fails the run with a syslog.BudgetError.
	// 0 means unlimited. Implies nothing in strict mode.
	MaxBadLines int
	// MaxBadFrac is the lenient mode's whole-stream corrupt-fraction
	// budget, checked at EOF. 0 means unlimited.
	MaxBadFrac float64
	// Obs receives per-stage spans (wall time, items in/out, bytes read,
	// per-worker utilization) and pipeline counters when non-nil. Nil — the
	// default — disables instrumentation at zero cost. Excluded from
	// serialized run manifests: a registry is a sink, not a setting.
	Obs *obs.Registry `json:"-"`
}

// ingestOptions maps the pipeline's Stage I settings onto the front end's.
func (c PipelineConfig) ingestOptions() ingest.Options {
	return ingest.Options{
		Workers: c.Workers,
		Lenient: c.Lenient,
		LenientOptions: syslog.LenientOptions{
			MaxBadLines: c.MaxBadLines,
			MaxBadFrac:  c.MaxBadFrac,
		},
		Obs: c.Obs,
	}
}

// DefaultPipelineConfig returns the paper's analysis settings.
func DefaultPipelineConfig(preOp, op stats.Period, nodes int) PipelineConfig {
	return PipelineConfig{
		CoalesceWindow:        coalesce.DefaultWindow,
		AttributionWindow:     impact.DefaultAttributionWindow,
		PreOp:                 preOp,
		Op:                    op,
		Nodes:                 nodes,
		OutlierStreamFraction: 0.25,
		OutlierMinCount:       100,
	}
}

func (c PipelineConfig) validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("core: non-positive node count %d", c.Nodes)
	}
	if err := c.PreOp.Validate(); err != nil {
		return err
	}
	return c.Op.Validate()
}

// TableIRow is one computed Table I row.
type TableIRow struct {
	Group    xid.Group    // the Xid group the row aggregates
	Category xid.Category // the paper's coarse error category
	PreOp    Cell         // pre-operational period count + MTBE
	Op       Cell         // operational period count + MTBE
}

// Cell is one count + MTBE cell. MTBE fields are zero when Count is zero
// (rendered as "-").
type Cell struct {
	Count int        // coalesced errors in the period
	MTBE  stats.MTBE // mean time between errors over the period
}

// PeriodSummary aggregates one period.
type PeriodSummary struct {
	Period stats.Period // the period the summary covers
	// Total counts every Table I row (including the derived uncorrectable
	// ECC row, matching the paper's 42,405 / 14,821 totals).
	Total int
	// TotalExclOutliers removes outlier bursts (the faulty GPU's 38,900).
	TotalExclOutliers int
	// PerNodeMTBE uses TotalExclOutliers (the paper's headline numbers).
	PerNodeMTBE float64
	// MemoryPerNodeMTBE and HardwarePerNodeMTBE drive finding (ii); the
	// hardware figure includes the interconnect, as the paper's 160x does.
	MemoryPerNodeMTBE   float64
	HardwarePerNodeMTBE float64 // see MemoryPerNodeMTBE
	// OutlierErrors is how many errors outlier streams contributed.
	OutlierErrors int
}

// Results is the full pipeline output.
type Results struct {
	Extract syslog.ExtractStats // Stage I line/match/skip counts
	// Ingestion is the structured Stage I report of a lenient run: lines
	// scanned, per-category corrupt-line counts, quarantine samples, and
	// budget status. Nil on strict (default) runs.
	Ingestion *syslog.IngestionReport
	// RawEvents and CoalescedEvents count Stage II input/output.
	RawEvents       int
	CoalescedEvents int // see RawEvents

	TableI     []TableIRow   // per-group error counts and MTBE (paper Table I)
	PreSummary PeriodSummary // pre-operational period totals
	OpSummary  PeriodSummary // operational period totals

	TableII  impact.Correlation   // Xid-to-job-failure correlation (paper Table II)
	TableIII []impact.TableIIIRow // per-GPU-count job rows (paper Table III)
	JobStats impact.JobStats      // GPU/CPU job success-rate comparison

	Avail avail.Analysis // node availability and downtime distribution

	// Shards records the per-file provenance of a sharded multi-file run
	// (AnalyzeLogFiles): each input's content digest, event count, and
	// cache outcome, in plan order. Nil on single-stream runs.
	Shards []ingest.ShardInfo
}

// Analyze runs Stages II and III over parsed inputs. repairs are the node
// unavailability intervals; cpu is the CPU-partition summary for §V-A.
// events is neither modified nor copied: Stage II sorts an index of it.
func Analyze(events []xid.Event, jobs []*slurmsim.Job, repairs []time.Duration,
	cpu workload.CPURecord, cfg PipelineConfig) (*Results, error) {
	return analyze([]coalesce.Run{coalesce.Sorted([][]xid.Event{events})}, jobs, repairs, cpu, cfg)
}

// analyze is Analyze over Stage II's input held in runs, read in order as
// one stream (see coalesce.Merge).
func analyze(runs []coalesce.Run, jobs []*slurmsim.Job, repairs []time.Duration,
	cpu workload.CPURecord, cfg PipelineConfig) (*Results, error) {
	blocks, raw, err := stage2(runs, cfg)
	if err != nil {
		return nil, err
	}
	s, err := NewStageIII(jobs, repairs, cpu, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Add(blocks...); err != nil {
		return nil, err
	}
	res, err := s.Results()
	if err != nil {
		return nil, err
	}
	res.RawEvents = raw
	return res, nil
}

// stage2 validates cfg and coalesces the runs into Merge's kept blocks.
// raw is the Stage II input count.
func stage2(runs []coalesce.Run, cfg PipelineConfig) (blocks coalesce.Blocks, raw int, err error) {
	if err := cfg.validate(); err != nil {
		return nil, 0, err
	}
	for _, r := range runs {
		raw += r.Len
	}
	sp2 := cfg.Obs.StartSpan("stage2.coalesce")
	blocks, err = coalesce.Merge(runs, cfg.CoalesceWindow)
	if err != nil {
		return nil, 0, err
	}
	sp2.AddIn(int64(raw))
	sp2.AddOut(int64(blocks.Len()))
	sp2.End()
	return blocks, raw, nil
}

// stage2Runs is Stage I's output as Stage II's input: the cached shards'
// runs, or one Sorted run over the segments.
func stage2Runs(ext *ingest.Result) []coalesce.Run {
	if len(ext.Runs) > 0 {
		return ext.Runs
	}
	return []coalesce.Run{coalesce.Sorted(ext.Segments)}
}

// Row returns the Table I row for a group.
func (r *Results) Row(g xid.Group) (TableIRow, bool) {
	for _, row := range r.TableI {
		if row.Group == g {
			return row, true
		}
	}
	return TableIRow{}, false
}

// IngestConfig selects the multi-file front end's cache behavior.
type IngestConfig struct {
	// CacheDir enables the columnar event-shard cache rooted there; ""
	// disables caching.
	CacheDir string
}

// AnalyzeLogFiles runs the full pipeline over one or more raw log files:
// the patterns expand to a deterministic shard plan (globs, directories,
// repeated -logs flags), every shard runs Stage I concurrently on the
// pooled byte parsers — or loads from the event-shard cache and skips the
// parse — and the shards' events, concatenated in plan order, feed
// Stages II-III. Tables I-III and the
// availability analysis are byte-identical to a single AnalyzeLogs run
// over the files' concatenation in plan order, at any worker count, warm
// or cold. Results.Shards carries each file's digest and cache outcome.
func AnalyzeLogFiles(patterns []string, jobDB io.Reader, repairs []time.Duration,
	cpu workload.CPURecord, cfg PipelineConfig, ing IngestConfig) (*Results, error) {
	plan, err := ingest.PlanFiles(patterns)
	if err != nil {
		return nil, err
	}
	opt := cfg.ingestOptions()
	if ing.CacheDir != "" {
		opt.Cache = ingest.NewCache(ing.CacheDir)
	}
	return analyzeRaw(func() (*ingest.Result, error) { return ingest.ExtractSegments(plan, opt) },
		jobDB, repairs, cpu, cfg)
}

// AnalyzeLogs runs the full pipeline from raw inputs: a syslog stream and a
// sacct-style job database dump.
func AnalyzeLogs(logs io.Reader, jobDB io.Reader, repairs []time.Duration,
	cpu workload.CPURecord, cfg PipelineConfig) (*Results, error) {
	return analyzeRaw(func() (*ingest.Result, error) { return ingest.ExtractReader(logs, cfg.ingestOptions()) },
		jobDB, repairs, cpu, cfg)
}

// analyzeRaw is the one body behind AnalyzeLogs and AnalyzeLogFiles, which
// differ only in their Stage I call. The stages run in order: Stage I,
// Stage II, the events into Stage III, and last one pass over the job
// database that adds each row to the job tables and drops it, so no job
// record outlives its row.
func analyzeRaw(stage1 func() (*ingest.Result, error), jobDB io.Reader, repairs []time.Duration,
	cpu workload.CPURecord, cfg PipelineConfig) (*Results, error) {
	ext, err := stage1()
	if err != nil {
		return nil, fmt.Errorf("core: stage I: %w", err)
	}
	blocks, raw, err := stage2(stage2Runs(ext), cfg)
	if err != nil {
		return nil, err
	}
	s, err := newStageIII(repairs, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Add(blocks...); err != nil {
		return nil, err
	}
	if err := s.scanJobDB(jobDB, cpu); err != nil {
		return nil, err
	}
	res, err := s.Results()
	if err != nil {
		return nil, err
	}
	res.RawEvents = raw
	return withStageI(res, ext), nil
}

// withStageI carries a Stage I result's statistics, lenient report and
// shard records into res.
func withStageI(res *Results, ext *ingest.Result) *Results {
	res.Extract = ext.Stats
	res.Ingestion = ext.Ingestion
	res.Shards = ext.Shards
	return res
}

// EndToEndConfig couples a simulation with pipeline settings.
type EndToEndConfig struct {
	Cluster  cluster.Config // the simulated fleet to generate logs from
	Pipeline PipelineConfig // analysis settings applied to the emitted logs
	// KeepRawLogs routes the raw log bytes through w when non-nil (e.g. to
	// persist the dataset); otherwise lines stream straight into Stage I.
	KeepRawLogs io.Writer
	// KeepRawEvents retains the Stage I output (pre-coalescing, one event
	// per raw log line) in the result, for coalescing ablations.
	KeepRawEvents bool
}

// EndToEndResult carries the analysis plus simulation ground truth for
// validation.
type EndToEndResult struct {
	Results *Results // the pipeline's analysis of the emitted logs
	// Truth is the simulator's own event stream (pre-duplication), for
	// validating the pipeline against ground truth.
	Truth *cluster.Result
	// RawLogLines is how many raw lines the syslog stage produced.
	RawLogLines int
	// RawEvents is the Stage I output (only when KeepRawEvents was set).
	RawEvents []xid.Event
}

// EndToEnd runs simulate -> emit raw logs -> extract -> coalesce ->
// characterize in a single streaming pass.
func EndToEnd(cfg EndToEndConfig) (*EndToEndResult, error) {
	// One registry observes the whole run: the pipeline's stage spans and
	// the simulator's sim.* series land side by side.
	if cfg.Pipeline.Obs.Enabled() && cfg.Cluster.Obs == nil {
		cfg.Cluster.Obs = cfg.Pipeline.Obs
	}
	sim, err := cluster.New(cfg.Cluster)
	if err != nil {
		return nil, err
	}

	// Stream raw lines from the simulator into Stage I through a pipe: the
	// writer formats (with duplication and noise) as the simulation runs,
	// and the reader side extracts concurrently — sharded across
	// cfg.Pipeline.Workers goroutines with an ordered fan-in, so the event
	// stream is identical to a sequential scan.
	pr, pw := io.Pipe()
	logDst := io.Writer(pw)
	if cfg.KeepRawLogs != nil {
		logDst = io.MultiWriter(pw, cfg.KeepRawLogs)
	}
	writer, err := syslog.NewWriter(logDst, syslog.DefaultWriterConfig(), cfg.Cluster.Seed)
	if err != nil {
		return nil, err
	}
	sim.SetEventSink(func(ev xid.Event) error {
		_, werr := writer.WriteEvent(ev)
		return werr
	})

	type extractOut struct {
		res *ingest.Result
		err error
	}
	done := make(chan extractOut, 1)
	go func() {
		res, err := ingest.ExtractReader(pr, cfg.Pipeline.ingestOptions())
		if err != nil {
			// Unblock the writer side: an early abort (e.g. an exceeded
			// error budget) must not deadlock the simulation's pipe writes.
			_ = pr.CloseWithError(err)
		}
		done <- extractOut{res, err}
	}()

	truth, runErr := sim.Run()
	if runErr != nil {
		_ = pw.CloseWithError(runErr)
		<-done
		return nil, runErr
	}
	if err := writer.Flush(); err != nil {
		_ = pw.CloseWithError(err)
		<-done
		return nil, err
	}
	if err := pw.Close(); err != nil {
		return nil, err
	}
	ext := <-done
	if ext.err != nil {
		return nil, fmt.Errorf("core: stage I: %w", ext.err)
	}

	repairs := make([]time.Duration, 0, len(truth.Downtimes))
	for _, d := range truth.Downtimes {
		repairs = append(repairs, d.Duration())
	}
	out := &EndToEndResult{
		Truth:       truth,
		RawLogLines: writer.Lines(),
	}
	if cfg.KeepRawEvents {
		out.RawEvents = slices.Concat(ext.res.Segments...)
	}
	res, err := analyze(stage2Runs(ext.res), truth.Jobs, repairs, truth.CPU, cfg.Pipeline)
	if err != nil {
		return nil, err
	}
	out.Results = withStageI(res, ext.res)
	cfg.Pipeline.Obs.Gauge("sim.rawlines").Set(int64(writer.Lines()))
	return out, nil
}
