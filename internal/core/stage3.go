package core

import (
	"fmt"
	"io"
	"slices"
	"time"

	"gpuresilience/internal/avail"
	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/impact"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/stats"
	"gpuresilience/internal/workload"
	"gpuresilience/internal/xid"
)

// StageIII is Stage III as a fold over Stage II's output, the one body
// behind both the batch pipeline and the streaming engine. NewStageIII
// computes what reads only the job database and the repair log; Add folds
// coalesced events into Table I's counters and Table II's device index;
// Results derives every table from that state. Batch analysis is one Add
// of everything; a streaming caller adds each newly sealed batch, and any
// split of a stream into batches gives the same Results.
//
// On the raw-logs path the job database is read last instead, as one
// pass over the dump once every event is in (scanJobDB).
//
// A StageIII is not safe for concurrent use.
type StageIII struct {
	cfg     PipelineConfig
	jobs    []*slurmsim.Job
	pass    *impact.JobPass // the job database's one pass, once it ran
	repairs []time.Duration

	tableIII []impact.TableIIIRow
	jobStats impact.JobStats

	pre, op periodCounts        // Table I counters per period
	index   *impact.DeviceIndex // Table II's per-device view of the stream
	events  int                 // coalesced events folded so far
	last    xid.Event           // the last folded event, for the order check
}

// periodCounts is Table I's fold state for one period: per-group counts
// and the per-stream counts the outlier rule needs.
type periodCounts struct {
	period   stats.Period
	byGroup  map[xid.Group]int
	byStream map[xid.Key]int
}

func newPeriodCounts(p stats.Period) periodCounts {
	return periodCounts{period: p, byGroup: make(map[xid.Group]int), byStream: make(map[xid.Key]int)}
}

// add counts ev if it falls in the period and in a Table I group.
func (pc *periodCounts) add(ev xid.Event) {
	if !pc.period.Contains(ev.Time.Time()) || !ev.Code.InStats() {
		return
	}
	g, ok := xid.GroupOf(ev.Code)
	if !ok {
		return
	}
	pc.byGroup[g]++
	pc.byStream[ev.Key()]++
}

// NewStageIII validates cfg and computes the job-only and repair-only
// outputs once: Table III and the §V-A job statistics. repairs are the
// node unavailability intervals; cpu is the CPU-partition summary.
func NewStageIII(jobs []*slurmsim.Job, repairs []time.Duration, cpu workload.CPURecord,
	cfg PipelineConfig) (*StageIII, error) {
	s, err := newStageIII(repairs, cfg)
	if err != nil {
		return nil, err
	}
	s.jobs = jobs
	sp := cfg.Obs.StartSpan("stage3.workload")
	sp.AddIn(int64(len(jobs)))
	s.tableIII = impact.TableIII(jobs)
	s.jobStats = impact.ComputeJobStats(jobs, cpu.Total, cpu.Succeeded)
	sp.AddOut(int64(len(s.tableIII)))
	sp.End()
	return s, nil
}

// newStageIII validates cfg and returns a StageIII with no jobs and no
// events.
func newStageIII(repairs []time.Duration, cfg PipelineConfig) (*StageIII, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	index, err := impact.NewDeviceIndex(impact.Config{
		AttributionWindow: cfg.AttributionWindow,
		Period:            cfg.Op,
		Workers:           cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &StageIII{
		cfg:     cfg,
		repairs: repairs,
		pre:     newPeriodCounts(cfg.PreOp),
		op:      newPeriodCounts(cfg.Op),
		index:   index,
	}, nil
}

// scanJobDB reads the job database as one pass over a sacct dump (nil for
// none) after the last Add: each row goes through impact.JobPass's per-job
// step against the complete device index and is dropped. It gives the
// tables NewStageIII and Results give over LoadDB's jobs.
func (s *StageIII) scanJobDB(jobDB io.Reader, cpu workload.CPURecord) error {
	sp := s.cfg.Obs.StartSpan("stage3.workload")
	pass := s.index.NewJobPass()
	if jobDB != nil {
		if err := slurmsim.ScanDB(jobDB, func(j *slurmsim.Job) error {
			pass.Add(j)
			return nil
		}); err != nil {
			return fmt.Errorf("core: load job DB: %w", err)
		}
	}
	s.pass = pass
	s.tableIII = pass.TableIII()
	s.jobStats = pass.JobStats(cpu.Total, cpu.Succeeded)
	sp.AddIn(int64(pass.Jobs()))
	sp.AddOut(int64(len(s.tableIII)))
	sp.End()
	return nil
}

// Add folds one batch of coalesced events. The batch must continue the
// canonical order of coalesce.Compare: sorted, and starting no earlier
// than the last event added before it. A batch out of that order is
// rejected whole, before anything is folded.
func (s *StageIII) Add(coalesced []xid.Event) error {
	prev, hasPrev := s.last, s.events > 0
	for i, ev := range coalesced {
		if hasPrev && coalesce.Compare(prev, ev) > 0 {
			return fmt.Errorf("core: stage III: event %d of the batch (%v %s gpu %d xid %d) precedes the one before it",
				i, ev.Time, ev.Node, ev.GPU, int(ev.Code))
		}
		prev, hasPrev = ev, true
	}
	if len(coalesced) == 0 {
		return nil
	}
	sp := s.cfg.Obs.StartSpan("stage3.stats")
	for _, ev := range coalesced {
		s.pre.add(ev)
		s.op.add(ev)
	}
	sp.AddIn(int64(len(coalesced)))
	sp.End()
	s.index.Add(coalesced)
	s.events += len(coalesced)
	s.last = prev
	return nil
}

// Results derives a fresh Results from the events folded so far: Table I
// with MTBE and the global outlier rule applied, Table II's job scan over
// the device index, and the availability analysis with the folded error
// count. It sets RawEvents to the folded count; a caller that knows its
// Stage II input count replaces it.
func (s *StageIII) Results() (*Results, error) {
	res := &Results{
		RawEvents:       s.events,
		CoalescedEvents: s.events,
		TableIII:        slices.Clone(s.tableIII),
		JobStats:        s.jobStats,
	}

	sp := s.cfg.Obs.StartSpan("stage3.stats")
	if err := res.fillTableI(s.pre, s.op, s.cfg); err != nil {
		return nil, err
	}
	sp.AddOut(int64(len(res.TableI)))
	sp.End()

	spI := s.cfg.Obs.StartSpan("stage3.impact")
	if s.pass != nil {
		spI.AddIn(int64(s.pass.Jobs()))
		res.TableII = s.pass.Correlation()
	} else {
		spI.AddIn(int64(len(s.jobs)))
		res.TableII = s.index.Correlate(s.jobs)
	}
	spI.AddOut(int64(len(res.TableII.Rows)))
	spI.End()

	spA := s.cfg.Obs.StartSpan("stage3.availability")
	full := stats.Period{Name: "characterization", Start: s.cfg.PreOp.Start, End: s.cfg.Op.End}
	errorCount := res.PreSummary.TotalExclOutliers + res.OpSummary.TotalExclOutliers
	availRes, err := avail.Analyze(s.repairs, avail.DefaultConfig(full, s.cfg.Nodes, errorCount))
	if err != nil {
		return nil, err
	}
	res.Avail = availRes
	spA.AddIn(int64(len(s.repairs)))
	spA.AddOut(int64(availRes.Repairs))
	spA.End()
	return res, nil
}

// periodTotals is one period's Table I counts with the derived row and
// the outlier rule applied.
type periodTotals struct {
	byGroup  map[xid.Group]int
	total    int
	outliers int
	memory   int
	hardware int // hardware + interconnect, as in finding (ii)
}

// totals applies the derived uncorrectable-ECC row and the global outlier
// rule to a period's counters without changing them.
func (pc periodCounts) totals(cfg PipelineConfig) periodTotals {
	t := periodTotals{byGroup: make(map[xid.Group]int, len(pc.byGroup)+1)}
	for g, n := range pc.byGroup {
		t.byGroup[g] = n
	}
	// Derived row: uncorrectable ECC = remap attempts (RRE + RRF).
	t.byGroup[xid.GroupUncorrECC] = t.byGroup[xid.GroupRRE] + t.byGroup[xid.GroupRRF]
	for g, n := range t.byGroup {
		t.total += n
		switch xid.GroupCategory(g) {
		case xid.CategoryMemory:
			t.memory += n
		default:
			t.hardware += n
		}
	}
	if cfg.OutlierStreamFraction > 0 {
		floor := max(cfg.OutlierMinCount, 1)
		for _, n := range pc.byStream {
			if n >= floor && float64(n) > cfg.OutlierStreamFraction*float64(t.total) {
				t.outliers += n
			}
		}
	}
	return t
}

// fillTableI computes per-group counts and MTBEs for both periods from
// their counters.
func (r *Results) fillTableI(preCounts, opCounts periodCounts, cfg PipelineConfig) error {
	pre := preCounts.totals(cfg)
	op := opCounts.totals(cfg)

	cell := func(n int, p stats.Period) (Cell, error) {
		c := Cell{Count: n}
		if n == 0 {
			return c, nil
		}
		m, err := stats.ComputeMTBE(n, p, cfg.Nodes)
		if err != nil {
			return Cell{}, err
		}
		c.MTBE = m
		return c, nil
	}

	for _, g := range xid.TableIGroups() {
		preCell, err := cell(pre.byGroup[g], cfg.PreOp)
		if err != nil {
			return err
		}
		opCell, err := cell(op.byGroup[g], cfg.Op)
		if err != nil {
			return err
		}
		r.TableI = append(r.TableI, TableIRow{
			Group:    g,
			Category: xid.GroupCategory(g),
			PreOp:    preCell,
			Op:       opCell,
		})
	}

	summarize := func(t periodTotals, p stats.Period) (PeriodSummary, error) {
		s := PeriodSummary{
			Period:            p,
			Total:             t.total,
			TotalExclOutliers: t.total - t.outliers,
			OutlierErrors:     t.outliers,
		}
		if s.TotalExclOutliers > 0 {
			m, err := stats.ComputeMTBE(s.TotalExclOutliers, p, cfg.Nodes)
			if err != nil {
				return s, err
			}
			s.PerNodeMTBE = m.PerNode
		}
		// The category split mirrors the paper: memory counts include the
		// derived uncorrectable ECC row; outlier streams are memory bursts
		// and are excluded from the memory figure too.
		mem := t.memory - t.outliers
		if mem > 0 {
			m, err := stats.ComputeMTBE(mem, p, cfg.Nodes)
			if err != nil {
				return s, err
			}
			s.MemoryPerNodeMTBE = m.PerNode
		}
		if t.hardware > 0 {
			m, err := stats.ComputeMTBE(t.hardware, p, cfg.Nodes)
			if err != nil {
				return s, err
			}
			s.HardwarePerNodeMTBE = m.PerNode
		}
		return s, nil
	}
	var err error
	if r.PreSummary, err = summarize(pre, cfg.PreOp); err != nil {
		return err
	}
	r.OpSummary, err = summarize(op, cfg.Op)
	return err
}
