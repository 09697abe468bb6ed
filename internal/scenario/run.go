package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"gpuresilience/internal/cluster"
	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/core"
	"gpuresilience/internal/ingest"
	"gpuresilience/internal/logfuzz"
	"gpuresilience/internal/obs"
	"gpuresilience/internal/report"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// Options tune a campaign run without touching its outcome: the report is
// byte-identical at any worker count, and the work directory only hosts
// rotation-replay scratch files.
type Options struct {
	// Workers bounds pipeline parallelism (0 = GOMAXPROCS).
	Workers int
	// WorkDir hosts rotation-replay scratch files; required only when the
	// scenario's replay sets rotateEvery.
	WorkDir string
}

// lineLayout is the consolidated-log timestamp format (syslog's emission
// layout), needed here to read timestamps off raw lines for outage windows.
const lineLayout = "2006-01-02T15:04:05.000000Z"

// lineMeta reads the timestamp and node name off a raw log line.
func lineMeta(line []byte) (t time.Time, node string, ok bool) {
	if len(line) < len(lineLayout)+2 {
		return time.Time{}, "", false
	}
	t, err := time.Parse(lineLayout, string(line[:len(lineLayout)]))
	if err != nil || line[len(lineLayout)] != ' ' {
		return time.Time{}, "", false
	}
	rest := line[len(lineLayout)+1:]
	sp := bytes.IndexByte(rest, ' ')
	if sp <= 0 {
		return time.Time{}, "", false
	}
	return t, string(rest[:sp]), true
}

// applyOutages blanks collector-outage windows: lines from affected nodes
// timestamped inside a window are dropped, exactly as a down collector
// daemon loses them. Returns the surviving log and the dropped-line count.
func applyOutages(raw []byte, outages []OutageWindow) ([]byte, int) {
	if len(outages) == 0 {
		return raw, 0
	}
	var out bytes.Buffer
	out.Grow(len(raw))
	dropped := 0
	for len(raw) > 0 {
		line := raw
		if i := bytes.IndexByte(raw, '\n'); i >= 0 {
			line, raw = raw[:i], raw[i+1:]
		} else {
			raw = nil
		}
		drop := false
		if t, node, ok := lineMeta(line); ok {
			for _, o := range outages {
				if !t.Before(o.Start) && t.Before(o.End) && (o.Nodes == nil || o.Nodes[node]) {
					drop = true
					break
				}
			}
		}
		if drop {
			dropped++
			continue
		}
		out.Write(line)
		out.WriteByte('\n')
	}
	return out.Bytes(), dropped
}

// parsesHook is the logfuzz oracle: a line "survives" only if Stage I would
// still accept it as a record.
func parsesHook(line []byte) bool {
	_, ok, err := syslog.ParseLine(string(line))
	return ok && err == nil
}

// extractBatch runs Stage I over a log in the compiled mode. A tripped
// lenient budget comes back as budgetErr with the other returns nil.
func extractBatch(data []byte, pcfg core.PipelineConfig) (events []xid.Event, stage1 BatchReport, budgetErr *syslog.BudgetError, err error) {
	ext, err := ingest.ExtractReader(bytes.NewReader(data), ingest.Options{
		Workers: pcfg.Workers,
		Lenient: pcfg.Lenient,
		LenientOptions: syslog.LenientOptions{
			MaxBadLines: pcfg.MaxBadLines,
			MaxBadFrac:  pcfg.MaxBadFrac,
		},
	})
	if err != nil {
		if errors.As(err, &budgetErr) {
			return nil, BatchReport{}, budgetErr, nil
		}
		return nil, BatchReport{}, nil, err
	}
	st := ext.Stats
	return slices.Concat(ext.Segments...), BatchReport{
		Lines: st.Lines, XIDLines: st.XIDLines, Noise: st.Skipped, BadLines: st.Malformed,
	}, nil, nil
}

// tableDrift is the L1 distance of per-group per-period Table I counts
// between the damaged and clean runs, normalized by the clean total.
func tableDrift(damaged, clean *core.Results) float64 {
	counts := func(r *core.Results) map[xid.Group][2]int {
		out := make(map[xid.Group][2]int, len(r.TableI))
		for _, row := range r.TableI {
			out[row.Group] = [2]int{row.PreOp.Count, row.Op.Count}
		}
		return out
	}
	d, c := counts(damaged), counts(clean)
	for g := range d {
		if _, ok := c[g]; !ok {
			c[g] = [2]int{}
		}
	}
	var diff, total int
	for g, cc := range c {
		dc := d[g]
		for p := 0; p < 2; p++ {
			delta := dc[p] - cc[p]
			if delta < 0 {
				delta = -delta
			}
			diff += delta
			total += cc[p]
		}
	}
	if total == 0 {
		if diff == 0 {
			return 0
		}
		return 1
	}
	return float64(diff) / float64(total)
}

// renderTables renders the three table documents from a batch Results the
// way the streaming snapshot's text path does — the shared report renderers
// — so a stream run and a batch run are byte-comparable. The xidstat doc
// carries Table I only: the scan-summary header line is Stage-I accounting,
// whose taxonomy legitimately differs between lenient batch ingest and the
// stream's per-line classification.
func renderTables(res *core.Results, downtimes []cluster.NodeDowntime) (map[string]string, error) {
	out := make(map[string]string, 3)
	var b strings.Builder
	if err := report.WriteTableI(&b, res); err != nil {
		return nil, err
	}
	out["xidstat"] = b.String()

	b.Reset()
	if err := report.WriteJobImpact(&b, res); err != nil {
		return nil, err
	}
	out["jobimpact"] = b.String()

	b.Reset()
	downByNode := report.DownHoursByNode(downtimes, nil)
	if err := report.WriteAvailability(&b, res.Avail, downByNode); err != nil {
		return nil, err
	}
	out["availability"] = b.String()
	return out, nil
}

// Run executes a compiled campaign end to end: simulate, damage the record,
// analyze through the batch pipeline, compare against the clean run, replay
// through the streaming engine under chaos, and evaluate the assertions.
func Run(c *Compiled, opts Options) (*Report, error) {
	sc := c.Scenario
	reg := obs.New()
	ccfg := c.Cluster
	ccfg.Obs = reg
	sim, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}
	var raw bytes.Buffer
	writer, err := syslog.NewWriter(&raw, syslog.DefaultWriterConfig(), ccfg.Seed)
	if err != nil {
		return nil, err
	}
	sim.SetEventSink(func(ev xid.Event) error {
		_, werr := writer.WriteEvent(ev)
		return werr
	})
	truth, err := sim.Run()
	if err != nil {
		return nil, err
	}
	if err := writer.Flush(); err != nil {
		return nil, err
	}

	scale := sc.Scale
	if scale == 0 {
		scale = DefaultScale
	}
	rep := &Report{
		Scenario:    sc.Name,
		Description: sc.Description,
		Seed:        c.Seed,
		Profile:     sc.Profile,
		Scale:       scale,
		Fleet: FleetReport{
			Nodes4: ccfg.Nodes4, Nodes8: ccfg.Nodes8,
			GPUs:         4*ccfg.Nodes4 + 8*ccfg.Nodes8,
			ChronicNodes: ccfg.ChronicNodes,
		},
		Op: PeriodReport{Start: ccfg.Op.Start, End: ccfg.Op.End},
		Sim: SimReport{
			RawLogLines:   writer.Lines(),
			TruthEvents:   len(truth.Events),
			Jobs:          len(truth.Jobs),
			Downtimes:     len(truth.Downtimes),
			ServiceEvents: truth.ServiceEvents,
		},
	}

	// Phase 2: damage the record.
	cleanLog := raw.Bytes()
	damaged, droppedLines := applyOutages(cleanLog, c.Outages)
	var fuzzRep *logfuzz.Report
	if c.Corrupt != nil {
		fc := *c.Corrupt
		fc.Parses = parsesHook
		damaged, fuzzRep, err = logfuzz.Corrupt(damaged, fc)
		if err != nil {
			return nil, err
		}
	}
	damagePresent := len(c.Outages) > 0 || c.Corrupt != nil
	if damagePresent {
		d := &DamageReport{
			OutageWindows:      len(c.Outages),
			OutageDroppedLines: droppedLines,
		}
		if fuzzRep != nil {
			d.CorruptTouched = len(fuzzRep.Touched)
			d.CorruptInserted = fuzzRep.Inserted
			byOp := make(map[string]int, len(fuzzRep.ByOp))
			for op, n := range fuzzRep.ByOp {
				if n > 0 {
					byOp[op.String()] = n
				}
			}
			d.CorruptByOp = sortedOps(byOp)
		}
		rep.Damage = d
	}

	// Phase 3: batch analysis of the damaged log.
	pcfg := c.Pipeline
	pcfg.Workers = opts.Workers
	events, stage1, budgetErr, err := extractBatch(damaged, pcfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: batch extract: %w", sc.Name, err)
	}
	if budgetErr != nil {
		rep.BudgetExhausted = true
		rep.BudgetError = budgetErr.Error()
		rep.Obs = simSeries(reg)
		rep.evaluate(sc)
		return rep, nil
	}
	repairs := cluster.Durations(truth.Downtimes)
	res, err := core.Analyze(events, truth.Jobs, repairs, truth.CPU, pcfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: batch analyze: %w", sc.Name, err)
	}
	stage1.RawEvents = res.RawEvents
	stage1.CoalescedEvents = res.CoalescedEvents
	stage1.PreOpErrors = res.PreSummary.Total
	stage1.OpErrors = res.OpSummary.Total
	stage1.Availability = res.Avail.Availability
	stage1.MTTRHours = res.Avail.MTTRHours
	stage1.LostNodeHours = res.Avail.LostNodeHours
	rep.Batch = &stage1

	// Clean-run reference for survival and drift. Without damage the run is
	// its own reference (surviving 1, drift 0) and the second pass is
	// skipped.
	cleanRes := res
	if damagePresent {
		clean, serr := ingest.ExtractReader(bytes.NewReader(cleanLog), ingest.Options{Workers: pcfg.Workers})
		if serr != nil {
			return nil, fmt.Errorf("scenario %s: clean extract: %w", sc.Name, serr)
		}
		cleanRes, err = core.Analyze(slices.Concat(clean.Segments...), truth.Jobs, repairs, truth.CPU, pcfg)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: clean analyze: %w", sc.Name, err)
		}
	}
	surviving := 1.0
	if cleanRes.CoalescedEvents > 0 {
		surviving = float64(res.CoalescedEvents) / float64(cleanRes.CoalescedEvents)
	}
	rep.Metrics = &MetricsReport{
		CleanCoalescedEvents: cleanRes.CoalescedEvents,
		SurvivingFraction:    surviving,
		TableDrift:           tableDrift(res, cleanRes),
	}

	// Per-event outcomes: coalesced records on the target device inside the
	// burst window (plus one coalescing window of slack).
	coalesced, err := coalesce.Events(events, pcfg.CoalesceWindow)
	if err != nil {
		return nil, err
	}
	for _, p := range c.Planned {
		hi := p.End.Add(pcfg.CoalesceWindow)
		observed := 0
		for _, ev := range coalesced {
			if at := ev.Time.Time(); ev.Node != p.Node || at.Before(p.Start) || at.After(hi) {
				continue
			}
			if p.GPU >= 0 && int(ev.GPU) != p.GPU {
				continue
			}
			observed++
		}
		rep.Events = append(rep.Events, EventOutcome{PlannedEvent: p, Observed: observed})
	}

	// Phase 4: streaming replay under chaos.
	if c.Replay != nil {
		batchDocs, derr := renderTables(res, truth.Downtimes)
		if derr != nil {
			return nil, derr
		}
		rep.Replays, err = runReplays(c, pcfg, truth, damaged, batchDocs, opts)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: replay: %w", sc.Name, err)
		}
	}

	rep.Obs = simSeries(reg)
	rep.evaluate(sc)
	return rep, nil
}

// simSeries filters the registry snapshot down to the worker-invariant
// simulation series: sim.* counters and gauges only. Stage spans and intern
// statistics carry wall time and scheduling artifacts, which would break
// report byte-reproducibility across worker counts.
func simSeries(reg *obs.Registry) map[string]int64 {
	snap := reg.Snapshot()
	out := make(map[string]int64)
	for k, v := range snap.Counters {
		if strings.HasPrefix(k, "sim.") {
			out[k] = v
		}
	}
	for k, v := range snap.Gauges {
		if strings.HasPrefix(k, "sim.") {
			out[k] = v
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
