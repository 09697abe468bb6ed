package core_test

import (
	"bytes"
	"math"
	"testing"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/core"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/stats"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/workload"
	"gpuresilience/internal/xid"
)

var (
	preOp = calib.PreOp()
	op    = calib.Op()
)

func pipeCfg() core.PipelineConfig {
	return core.DefaultPipelineConfig(preOp, op, calib.Nodes)
}

func ev(at time.Time, node string, gpu int, code xid.Code) xid.Event {
	return xid.Event{Time: xid.Time(at.UnixNano()), Node: node, GPU: int32(gpu), Code: code}
}

func TestAnalyzeTableICountsAndMTBE(t *testing.T) {
	var events []xid.Event
	// 100 op-period MMU errors spaced a day apart on one GPU.
	for i := 0; i < 100; i++ {
		events = append(events, ev(op.Start.Add(time.Duration(i)*24*time.Hour), "n1", 0, xid.MMU))
	}
	// 10 RREs and 2 RRFs in pre-op.
	for i := 0; i < 10; i++ {
		events = append(events, ev(preOp.Start.Add(time.Duration(i)*24*time.Hour), "n2", 1, xid.RRE))
	}
	for i := 0; i < 2; i++ {
		events = append(events, ev(preOp.Start.Add(time.Duration(i)*24*time.Hour+time.Hour), "n2", 2, xid.RRF))
	}
	// Excluded software code must not appear.
	events = append(events, ev(op.Start.Add(time.Hour), "n1", 0, xid.GPUSoftware))

	res, err := core.Analyze(events, nil, nil, workload.CPURecord{}, pipeCfg())
	if err != nil {
		t.Fatal(err)
	}
	mmu, ok := res.Row(xid.GroupMMU)
	if !ok || mmu.Op.Count != 100 || mmu.PreOp.Count != 0 {
		t.Fatalf("MMU row = %+v", mmu)
	}
	wantSys := op.Hours() / 100
	if math.Abs(mmu.Op.MTBE.SystemWide-wantSys) > 1e-9 {
		t.Fatalf("MMU MTBE = %v, want %v", mmu.Op.MTBE.SystemWide, wantSys)
	}
	if math.Abs(mmu.Op.MTBE.PerNode-wantSys*calib.Nodes) > 1e-6 {
		t.Fatalf("MMU per-node MTBE = %v", mmu.Op.MTBE.PerNode)
	}
	// Derived uncorrectable ECC row = RRE + RRF.
	unc, ok := res.Row(xid.GroupUncorrECC)
	if !ok || unc.PreOp.Count != 12 {
		t.Fatalf("uncorrectable ECC row = %+v", unc)
	}
	// Pre-op total: RRE 10 + RRF 2 + derived 12 = 24 (paper-style double
	// count); op total: MMU 100.
	if res.PreSummary.Total != 24 || res.OpSummary.Total != 100 {
		t.Fatalf("totals = %d / %d", res.PreSummary.Total, res.OpSummary.Total)
	}
	if res.CoalescedEvents != 113 {
		t.Fatalf("coalesced = %d (software code must be ignored by Table I but kept in stream)", res.CoalescedEvents)
	}
}

func TestAnalyzeOutlierExclusion(t *testing.T) {
	cfg := pipeCfg()
	cfg.OutlierStreamFraction = 0.25
	cfg.OutlierMinCount = 50
	var events []xid.Event
	// One stream bursts 200 errors; another has 10.
	for i := 0; i < 200; i++ {
		events = append(events, ev(preOp.Start.Add(time.Duration(i)*time.Hour), "bad", 3, xid.UncontainedMem))
	}
	for i := 0; i < 10; i++ {
		events = append(events, ev(preOp.Start.Add(time.Duration(i)*24*time.Hour), "ok", 0, xid.MMU))
	}
	res, err := core.Analyze(events, nil, nil, workload.CPURecord{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PreSummary.Total != 210 {
		t.Fatalf("total = %d", res.PreSummary.Total)
	}
	if res.PreSummary.OutlierErrors != 200 || res.PreSummary.TotalExclOutliers != 10 {
		t.Fatalf("summary = %+v", res.PreSummary)
	}
	wantPerNode := preOp.Hours() / 10 * calib.Nodes
	if math.Abs(res.PreSummary.PerNodeMTBE-wantPerNode) > 1e-6 {
		t.Fatalf("per-node MTBE = %v, want %v", res.PreSummary.PerNodeMTBE, wantPerNode)
	}
}

func TestAnalyzeCoalescesDuplicates(t *testing.T) {
	base := op.Start.Add(time.Hour)
	events := []xid.Event{
		ev(base, "n1", 0, xid.NVLink),
		ev(base.Add(100*time.Millisecond), "n1", 0, xid.NVLink), // dup
		ev(base.Add(time.Minute), "n1", 0, xid.NVLink),          // real repeat
	}
	res, err := core.Analyze(events, nil, nil, workload.CPURecord{}, pipeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.RawEvents != 3 || res.CoalescedEvents != 2 {
		t.Fatalf("raw=%d coalesced=%d", res.RawEvents, res.CoalescedEvents)
	}
	row, _ := res.Row(xid.GroupNVLink)
	if row.Op.Count != 2 {
		t.Fatalf("NVLink count = %d", row.Op.Count)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	cfg := pipeCfg()
	cfg.Nodes = 0
	if _, err := core.Analyze(nil, nil, nil, workload.CPURecord{}, cfg); err == nil {
		t.Fatal("zero nodes accepted")
	}
	cfg = pipeCfg()
	cfg.PreOp = stats.Period{Start: op.End, End: op.Start}
	if _, err := core.Analyze(nil, nil, nil, workload.CPURecord{}, cfg); err == nil {
		t.Fatal("bad period accepted")
	}
}

func TestAnalyzeLogsStageI(t *testing.T) {
	var logs bytes.Buffer
	w, err := syslog.NewWriter(&logs, syslog.DefaultWriterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	base := op.Start.Add(time.Hour)
	for i := 0; i < 20; i++ {
		if _, err := w.WriteEvent(ev(base.Add(time.Duration(i)*time.Minute), "gpub007", 2, xid.GSPRPCTimeout)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var jobDB bytes.Buffer
	if err := slurmsim.DumpDB(&jobDB, nil); err != nil {
		t.Fatal(err)
	}

	res, err := core.AnalyzeLogs(&logs, &jobDB, nil, workload.CPURecord{}, pipeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Extract.XIDLines < 20 {
		t.Fatalf("extract stats = %+v", res.Extract)
	}
	row, _ := res.Row(xid.GroupGSP)
	if row.Op.Count != 20 {
		t.Fatalf("GSP count = %d, want 20 after coalescing duplicates", row.Op.Count)
	}
}

// TestEndToEndSmallScale runs the full calibrated reproduction at 1% scale:
// simulate -> raw logs -> extract -> coalesce -> characterize, and checks
// the pipeline recovers the simulator's ground-truth event stream exactly.
func TestEndToEndSmallScale(t *testing.T) {
	sc := calib.NewScenario(42, 0.01)
	out, err := core.EndToEnd(core.EndToEndConfig{
		Cluster:  sc.Cluster,
		Pipeline: pipeCfg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Results

	// The pipeline must recover the simulator's coalesced-level events
	// despite duplication and noise in the raw logs. Small biases are
	// inherent to Δt coalescing (a duplicate train can outlast the window;
	// a genuine repeat can fall inside it), so allow 2%.
	truthN := len(out.Truth.Events)
	if diff := res.CoalescedEvents - truthN; diff < -truthN/50 || diff > truthN/50 {
		t.Fatalf("pipeline recovered %d events, truth has %d",
			res.CoalescedEvents, truthN)
	}
	if out.RawLogLines <= len(out.Truth.Events) {
		t.Fatalf("raw lines %d should exceed true events %d (duplication)",
			out.RawLogLines, len(out.Truth.Events))
	}
	if res.Extract.Skipped == 0 {
		t.Fatal("no noise lines were skipped — noise generation broken")
	}

	// Scaled quotas: ~1% of Table I (loose bounds; cascades are random).
	mmu, _ := res.Row(xid.GroupMMU)
	if mmu.Op.Count < 50 || mmu.Op.Count > 140 {
		t.Fatalf("op MMU count = %d, want ~88", mmu.Op.Count)
	}
	unc, _ := res.Row(xid.GroupUncontained)
	if unc.PreOp.Count < 300 || unc.PreOp.Count > 460 {
		t.Fatalf("pre-op uncontained = %d, want ~389 (scaled burst)", unc.PreOp.Count)
	}
	// The burst stream dominates the pre-op period and is flagged as the
	// outlier even at 1% scale (fraction-based detection is scale-free).
	if res.PreSummary.OutlierErrors < 300 {
		t.Fatalf("burst not flagged as outlier: %d", res.PreSummary.OutlierErrors)
	}

	// Jobs ran and mostly succeeded.
	if res.JobStats.GPUTotal < 10000 {
		t.Fatalf("GPU jobs = %d", res.JobStats.GPUTotal)
	}
	if res.JobStats.GPUSuccessRate < 0.70 || res.JobStats.GPUSuccessRate > 0.80 {
		t.Fatalf("GPU success rate = %.3f", res.JobStats.GPUSuccessRate)
	}
	if math.Abs(res.JobStats.CPUSuccessRate-0.749) > 0.02 {
		t.Fatalf("CPU success rate = %.3f", res.JobStats.CPUSuccessRate)
	}

	// Availability pieces exist.
	if res.Avail.Repairs == 0 || res.Avail.MTTRHours <= 0 {
		t.Fatalf("avail = %+v", res.Avail)
	}
	if res.Avail.Availability <= 0.9 || res.Avail.Availability >= 1 {
		t.Fatalf("availability = %v", res.Avail.Availability)
	}
}

func TestEndToEndKeepsRawLogs(t *testing.T) {
	sc := calib.NewScenario(7, 0.002)
	sc.Cluster.Workload = nil // faster: errors only
	var raw bytes.Buffer
	out, err := core.EndToEnd(core.EndToEndConfig{
		Cluster:     sc.Cluster,
		Pipeline:    pipeCfg(),
		KeepRawLogs: &raw,
	})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Len() == 0 {
		t.Fatal("raw logs not captured")
	}
	// Re-analyzing the captured logs reproduces the same Table I.
	res2, err := core.AnalyzeLogs(bytes.NewReader(raw.Bytes()), nil, nil,
		workload.CPURecord{}, pipeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res2.CoalescedEvents != out.Results.CoalescedEvents {
		t.Fatalf("re-analysis: %d vs %d events", res2.CoalescedEvents, out.Results.CoalescedEvents)
	}
}
