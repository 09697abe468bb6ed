package core_test

import (
	"bytes"
	"testing"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/cluster"
	"gpuresilience/internal/core"
	"gpuresilience/internal/report"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/stats"
	"gpuresilience/internal/xid"
)

// shiftedInputs is one analysis's inputs with every instant moved by the
// same delta: raw events, job times, downtimes, and both periods.
type shiftedInputs struct {
	events    []xid.Event
	jobs      []*slurmsim.Job
	downtimes []cluster.NodeDowntime
	cfg       core.PipelineConfig
}

func shiftInputs(t *testing.T, events []xid.Event, jobs []*slurmsim.Job, downtimes []cluster.NodeDowntime,
	cfg core.PipelineConfig, delta time.Duration) shiftedInputs {
	t.Helper()
	at := func(v slurmsim.Time) slurmsim.Time {
		if v.IsZero() {
			return 0
		}
		moved := v.Time().Add(delta)
		if !slurmsim.InRange(moved) {
			t.Fatalf("shift by %v moves %v out of the job record's range", delta, v.Time())
		}
		return slurmsim.At(moved)
	}
	period := func(p stats.Period) stats.Period {
		p.Start, p.End = p.Start.Add(delta), p.End.Add(delta)
		return p
	}
	out := shiftedInputs{
		events:    make([]xid.Event, len(events)),
		jobs:      make([]*slurmsim.Job, len(jobs)),
		downtimes: make([]cluster.NodeDowntime, len(downtimes)),
		cfg:       cfg,
	}
	for i, ev := range events {
		ev.Time += xid.Time(delta)
		out.events[i] = ev
	}
	for i, j := range jobs {
		c := *j
		c.Submit, c.Start, c.End = at(j.Submit), at(j.Start), at(j.End)
		out.jobs[i] = &c
	}
	for i, d := range downtimes {
		d.Start, d.End = d.Start.Add(delta), d.End.Add(delta)
		out.downtimes[i] = d
	}
	out.cfg.PreOp, out.cfg.Op = period(cfg.PreOp), period(cfg.Op)
	return out
}

// reloaded returns jobs after a trip through the sacct dump, which keeps
// whole seconds.
func reloaded(t *testing.T, jobs []*slurmsim.Job) []*slurmsim.Job {
	t.Helper()
	var buf bytes.Buffer
	if err := slurmsim.DumpDB(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	back, err := slurmsim.LoadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestTablesInvariantUnderTimeShift is a metamorphic relation: moving every
// event, job time, downtime and both periods by one whole-second delta
// leaves Tables I-III and Figure 2 byte-identical, through Analyze on the
// in-memory jobs and on jobs reloaded from a dump of the shifted ones. Only
// differences of instants may reach a table, so this holds the job record's
// integer time arithmetic to the time.Time arithmetic of the events and
// periods.
func TestTablesInvariantUnderTimeShift(t *testing.T) {
	sc := calib.NewScenario(11, 0.02)
	cfg := core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes)
	out, err := core.EndToEnd(core.EndToEndConfig{Cluster: sc.Cluster, Pipeline: cfg, KeepRawEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	truth := out.Truth
	if len(out.RawEvents) == 0 || len(truth.Jobs) == 0 || len(truth.Downtimes) == 0 {
		t.Fatalf("degenerate inputs: %d events, %d jobs, %d downtimes",
			len(out.RawEvents), len(truth.Jobs), len(truth.Downtimes))
	}
	render := func(in shiftedInputs, jobs []*slurmsim.Job) []byte {
		t.Helper()
		res, err := core.Analyze(in.events, jobs, cluster.Durations(in.downtimes), truth.CPU, in.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.WriteAll(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := shiftInputs(t, out.RawEvents, truth.Jobs, truth.Downtimes, cfg, 0)
	want, wantDumped := render(base, base.jobs), render(base, reloaded(t, base.jobs))
	for _, delta := range []time.Duration{
		37*24*time.Hour + time.Second,
		-(412*24*time.Hour + 7*time.Hour + 13*time.Second),
	} {
		in := shiftInputs(t, out.RawEvents, truth.Jobs, truth.Downtimes, cfg, delta)
		if got := render(in, in.jobs); !bytes.Equal(got, want) {
			t.Errorf("shift %v: tables moved\n--- shifted ---\n%s\n--- original ---\n%s", delta, got, want)
		}
		if got := render(in, reloaded(t, in.jobs)); !bytes.Equal(got, wantDumped) {
			t.Errorf("shift %v through the job dump: tables moved\n--- shifted ---\n%s\n--- original ---\n%s",
				delta, got, wantDumped)
		}
	}
}
