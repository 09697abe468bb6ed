package cluster

import (
	"math"
	"testing"
	"time"

	"gpuresilience/internal/faults"
	"gpuresilience/internal/gpusim"
	"gpuresilience/internal/healthcheck"
	"gpuresilience/internal/nodesim"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/stats"
	"gpuresilience/internal/workload"
	"gpuresilience/internal/xid"
)

var (
	preOp = stats.Period{
		Name:  "pre-op",
		Start: time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC),
	}
	op = stats.Period{
		Name:  "op",
		Start: time.Date(2022, 2, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC),
	}
)

// testConfig returns a small, fast cluster configuration.
func testConfig(seed uint64) Config {
	return Config{
		Seed:     seed,
		Nodes4:   8,
		Nodes8:   1,
		PreOp:    preOp,
		Op:       op,
		GPUPreOp: gpusim.DefaultConfig(),
		GPUOp:    gpusim.DefaultConfig(),
		Node:     nodesim.DefaultConfig(),
		Sched:    slurmsim.DefaultConfig(),
		Rules: map[faults.Kind]ImpactRule{
			faults.KindMMU:           {KillProb: 0.9, ServiceProb: 0.5},
			faults.KindGSP:           {KillProb: 1, KillNode: true, ServiceProb: 1},
			faults.KindPMU:           {KillProb: 0.97},
			faults.KindNVLink:        {ServiceProb: 0.1},
			faults.KindBusOff:        {KillProb: 1, ServiceProb: 1},
			faults.KindUncorrectable: {ServiceProb: 0.5},
		},
		PMUPropagateProb:  1,
		PMUPropagateDelay: 5 * time.Second,
		GSPTimeoutProb:    0.6,
	}
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func countCode(events []xid.Event, code xid.Code) int {
	n := 0
	for _, ev := range events {
		if ev.Code == code {
			n++
		}
	}
	return n
}

func TestQuotaCountsExactWithoutJobs(t *testing.T) {
	cfg := testConfig(1)
	cfg.OpFaults = []faults.ProcessSpec{
		{Kind: faults.KindMMU, Episodes: 50, MeanSize: 1, MeanGap: time.Minute},
		{Kind: faults.KindBusOff, Episodes: 3, MeanSize: 1, MeanGap: time.Minute},
	}
	res := run(t, cfg)
	if got := countCode(res.Events, xid.MMU); got != 50 {
		t.Fatalf("MMU events = %d, want 50", got)
	}
	if got := countCode(res.Events, xid.FallenOffBus); got != 3 {
		t.Fatalf("bus-off events = %d, want 3", got)
	}
	// Every bus-off should trigger a service; MMU ~50%.
	if res.ServiceEvents < 3 || res.ServiceEvents > 53 {
		t.Fatalf("service events = %d", res.ServiceEvents)
	}
	if len(res.Downtimes) == 0 {
		t.Fatal("no downtime recorded despite services")
	}
}

func TestEventsInPeriodAndOrdered(t *testing.T) {
	cfg := testConfig(2)
	cfg.PreOpFaults = []faults.ProcessSpec{
		{Kind: faults.KindNVLink, Episodes: 20, MeanSize: 3, MeanGap: 2 * time.Minute},
	}
	cfg.OpFaults = []faults.ProcessSpec{
		{Kind: faults.KindGSP, Episodes: 5, MeanSize: 10, MeanGap: 30 * time.Second},
	}
	res := run(t, cfg)
	var last time.Time
	for _, ev := range res.Events {
		if ev.Time.Before(last) {
			t.Fatal("events not in time order")
		}
		last = ev.Time
		if ev.Time.Before(preOp.Start) || !ev.Time.Before(op.End) {
			t.Fatalf("event at %v outside simulation", ev.Time)
		}
	}
	if got := countCode(res.Events, xid.NVLink); got == 0 {
		t.Fatal("no NVLink events")
	}
	// First error of each GSP storm must be XID 119.
	gsp := countCode(res.Events, xid.GSPRPCTimeout) + countCode(res.Events, xid.GSPError)
	if gsp < 20 {
		t.Fatalf("GSP events = %d, want storms of mean 10", gsp)
	}
}

func TestInjectedEpisodesRun(t *testing.T) {
	cfg := testConfig(9)
	at := op.Start.Add(24 * time.Hour)
	cfg.Inject = []faults.Episode{
		{Kind: faults.KindGSP, Node: 2, GPU: 1,
			Times: []time.Time{at, at.Add(time.Minute), at.Add(2 * time.Minute)}},
		{Kind: faults.KindMMU, Node: 0, GPU: -1, // -1: pick a device
			Times: []time.Time{at.Add(time.Hour)}},
	}
	res := run(t, cfg)
	gsp := countCode(res.Events, xid.GSPRPCTimeout) + countCode(res.Events, xid.GSPError)
	if gsp != 3 {
		t.Fatalf("GSP events = %d, want the 3 injected", gsp)
	}
	if got := countCode(res.Events, xid.MMU); got != 1 {
		t.Fatalf("MMU events = %d, want the 1 injected", got)
	}
	for _, ev := range res.Events {
		if ev.Code == xid.GSPRPCTimeout || ev.Code == xid.GSPError {
			if ev.Node != "gpub003" {
				t.Fatalf("injected GSP event on %s, want gpub003", ev.Node)
			}
		}
	}
}

func TestInjectedEpisodeValidation(t *testing.T) {
	at := op.Start.Add(time.Hour)
	cases := []faults.Episode{
		{Kind: faults.Kind(0), Node: 0, Times: []time.Time{at}},
		{Kind: faults.KindMMU, Node: 99, Times: []time.Time{at}},
		{Kind: faults.KindMMU, Node: 0, Times: nil},
		{Kind: faults.KindMMU, Node: 0, Times: []time.Time{preOp.Start.Add(-time.Hour)}},
		{Kind: faults.KindMMU, Node: 0, Times: []time.Time{op.End.Add(time.Hour)}},
		{Kind: faults.KindMMU, Node: 0, Times: []time.Time{at.Add(time.Minute), at}},
	}
	for i, ep := range cases {
		cfg := testConfig(1)
		cfg.Inject = []faults.Episode{ep}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(); err == nil {
			t.Errorf("case %d: invalid injected episode accepted", i)
		}
	}
}

func TestGSPKillsWholeNodeAndServices(t *testing.T) {
	cfg := testConfig(3)
	cfg.OpFaults = []faults.ProcessSpec{
		{Kind: faults.KindGSP, Episodes: 6, MeanSize: 5, MeanGap: time.Minute},
	}
	wl := workload.DefaultConfig(3, op, 0.0008)
	wl.Period = op
	cfg.Workload = &wl
	res := run(t, cfg)
	nodeFails := 0
	for _, j := range res.Jobs {
		if j.State == slurmsim.StateNodeFail {
			nodeFails++
		}
	}
	if nodeFails == 0 {
		t.Fatal("GSP storms killed no jobs")
	}
	if res.ServiceEvents < 6 {
		t.Fatalf("service events = %d, want >= 6 (one per storm)", res.ServiceEvents)
	}
}

func TestPMUPropagatesToMMU(t *testing.T) {
	cfg := testConfig(4)
	cfg.OpFaults = []faults.ProcessSpec{
		{Kind: faults.KindPMU, Episodes: 30, MeanSize: 1, MeanGap: time.Minute},
	}
	res := run(t, cfg)
	pmu := countCode(res.Events, xid.PMUSPIReadFail) + countCode(res.Events, xid.PMUSPIWriteFail)
	mmu := countCode(res.Events, xid.MMU)
	if pmu != 30 {
		t.Fatalf("PMU events = %d", pmu)
	}
	if mmu != 30 {
		t.Fatalf("propagated MMU events = %d, want 30 (propagation prob 1)", mmu)
	}
	// Each propagated MMU error follows its PMU error by the delay.
	var pmuTimes, mmuTimes []time.Time
	for _, ev := range res.Events {
		switch ev.Code {
		case xid.PMUSPIReadFail, xid.PMUSPIWriteFail:
			pmuTimes = append(pmuTimes, ev.Time)
		case xid.MMU:
			mmuTimes = append(mmuTimes, ev.Time)
		}
	}
	for i := range mmuTimes {
		if got := mmuTimes[i].Sub(pmuTimes[i]); got != 5*time.Second {
			t.Fatalf("propagation delay = %v", got)
		}
	}
}

func TestUncorrectableCascade(t *testing.T) {
	cfg := testConfig(5)
	cfg.GPUPreOp.Memory.AccessBeforeRemapProb = 0
	cfg.GPUOp.Memory.AccessBeforeRemapProb = 0
	cfg.OpFaults = []faults.ProcessSpec{
		{Kind: faults.KindUncorrectable, Episodes: 12, MeanSize: 1, MeanGap: time.Minute},
	}
	res := run(t, cfg)
	if got := countCode(res.Events, xid.RRE); got != 12 {
		t.Fatalf("RRE events = %d, want 12 (healthy devices remap everything)", got)
	}
	if got := countCode(res.Events, xid.RRF); got != 0 {
		t.Fatalf("RRF events = %d, want 0", got)
	}
}

func TestNVLinkIdleLinksDoNotKill(t *testing.T) {
	cfg := testConfig(6)
	// Only single-GPU jobs: no link can be active.
	wl := workload.DefaultConfig(6, op, 0.001)
	wl.Buckets = wl.Buckets[:1]
	wl.BaselineFailProb = 0
	cfg.Workload = &wl
	cfg.Rules[faults.KindNVLink] = ImpactRule{ServiceProb: 0}
	cfg.OpFaults = []faults.ProcessSpec{
		{Kind: faults.KindNVLink, Episodes: 60, MeanSize: 2, MeanGap: time.Minute},
	}
	res := run(t, cfg)
	if res.Fabric.Escalations != 0 {
		t.Fatalf("escalations = %d with single-GPU jobs only", res.Fabric.Escalations)
	}
	for _, j := range res.Jobs {
		if j.State == slurmsim.StateNodeFail {
			t.Fatal("an idle-link NVLink error killed a job")
		}
	}
	if res.Fabric.Faults == 0 || countCode(res.Events, xid.NVLink) == 0 {
		t.Fatal("no NVLink activity recorded")
	}
}

func TestFaultyGPUScenario(t *testing.T) {
	cfg := testConfig(7)
	burstStart := preOp.Start.Add(10 * 24 * time.Hour)
	mem := gpusim.DefaultMemoryConfig()
	mem.RemapFailProb = 0.75
	mem.AccessBeforeRemapProb = 0
	cfg.FaultyGPU = &FaultyGPUScenario{
		Node:               2,
		GPU:                1,
		UncorrectableRoots: 20,
		RootsStart:         preOp.Start,
		Memory:             mem,
		BurstStart:         burstStart,
		BurstDuration:      5 * 24 * time.Hour,
		BurstCount:         3000,
	}
	res := run(t, cfg)
	if got := countCode(res.Events, xid.UncontainedMem); got != 3000 {
		t.Fatalf("burst uncontained events = %d, want 3000", got)
	}
	rrf := countCode(res.Events, xid.RRF)
	if rrf == 0 {
		t.Fatal("defective device produced no RRFs")
	}
	// All burst events from the same device.
	for _, ev := range res.Events {
		if ev.Code == xid.UncontainedMem && (ev.Node != "gpub003" || ev.GPU != 1) {
			t.Fatalf("burst event from wrong device: %+v", ev)
		}
	}
	// Replacement happened: at least one swapped downtime on gpub003.
	swapped := false
	for _, d := range res.Downtimes {
		if d.Node == "gpub003" && d.Swapped {
			swapped = true
		}
	}
	if !swapped {
		t.Fatal("faulty GPU never replaced")
	}
}

func TestSoftwareXIDsEmittedButExcluded(t *testing.T) {
	cfg := testConfig(16)
	cfg.SoftwareXIDProb = 1.0 // every natural failure logs XID 13/43
	wl := workload.DefaultConfig(16, op, 0.0005)
	cfg.Workload = &wl
	res := run(t, cfg)
	soft := countCode(res.Events, xid.GPUSoftware) + countCode(res.Events, xid.ResetChannel)
	if soft == 0 {
		t.Fatal("no software XIDs emitted")
	}
	failed := 0
	for _, j := range res.Jobs {
		if j.State == slurmsim.StateFailed {
			failed++
		}
	}
	if soft != failed {
		t.Fatalf("software XIDs = %d, naturally failed jobs = %d", soft, failed)
	}
	for _, ev := range res.Events {
		if (ev.Code == xid.GPUSoftware || ev.Code == xid.ResetChannel) && ev.Code.InStats() {
			t.Fatal("software code marked in-stats")
		}
	}
}

func TestMLJobsMaskMMUMoreOften(t *testing.T) {
	cfg := testConfig(15)
	// KillProbML is a positive override (zero means "use KillProb").
	cfg.Rules[faults.KindMMU] = ImpactRule{KillProb: 1.0, KillProbML: 0.05, ServiceProb: 0}
	wl := workload.DefaultConfig(15, op, 0.002)
	wl.BaselineFailProb = 0
	// Force a heavy ML share so the split is visible.
	for i := range wl.Buckets {
		wl.Buckets[i].MLFrac = 0.5
	}
	cfg.Workload = &wl
	cfg.OpFaults = []faults.ProcessSpec{
		{Kind: faults.KindMMU, Episodes: 400, MeanSize: 1, MeanGap: time.Minute},
	}
	res := run(t, cfg)
	var mlKilled, nonMLKilled int
	for _, j := range res.Jobs {
		if j.State != slurmsim.StateNodeFail {
			continue
		}
		if j.ML {
			mlKilled++
		} else {
			nonMLKilled++
		}
	}
	if nonMLKilled < 10 {
		t.Skipf("only %d non-ML MMU kills at this scale/seed", nonMLKilled)
	}
	// With a 50/50 exposure split, ML kills should run at roughly 5% of the
	// non-ML volume; allow a wide band for the small sample.
	if mlKilled*3 >= nonMLKilled {
		t.Fatalf("ML kills %d vs non-ML %d: override not applied", mlKilled, nonMLKilled)
	}
}

func TestBusOffDeviceReplacedByHealthCheck(t *testing.T) {
	cfg := testConfig(14)
	hc := healthcheck.DefaultConfig()
	cfg.HealthCheck = &hc
	cfg.OpFaults = []faults.ProcessSpec{
		{Kind: faults.KindBusOff, Episodes: 3, MeanSize: 1, MeanGap: time.Minute},
	}
	res := run(t, cfg)
	// A device can dodge the monitor only when its bus-off lands within the
	// last sweep-plus-swap window before the period ends, or when a node
	// service cycle swapped it first — so at least 2 of 3 are monitor pulls.
	if len(res.HealthActions) < 2 {
		t.Fatalf("health actions = %+v", res.HealthActions)
	}
	for _, a := range res.HealthActions {
		if a.Reason == "" || a.Node == "" {
			t.Fatalf("action = %+v", a)
		}
	}
	if res.HealthSweeps == 0 {
		t.Fatal("no sweeps recorded")
	}
	// Each replacement adds a swapped downtime.
	swaps := 0
	for _, d := range res.Downtimes {
		if d.Swapped {
			swaps++
		}
	}
	if swaps < len(res.HealthActions) {
		t.Fatalf("swaps = %d < actions %d", swaps, len(res.HealthActions))
	}
}

func TestSBEEpisodesEscalateOnSecondHit(t *testing.T) {
	cfg := testConfig(12)
	cfg.GPUOp.Memory.AccessBeforeRemapProb = 0
	cfg.GPUOp.Memory.DBELogProb = 0
	cfg.OpFaults = []faults.ProcessSpec{
		// Episodes of exactly... sizes are geometric with mean 4, so most
		// episodes have >= 2 hits on their hot row and escalate once per
		// pair of hits.
		{Kind: faults.KindSBE, Episodes: 40, MeanSize: 4, MeanGap: time.Minute},
	}
	res := run(t, cfg)
	rre := countCode(res.Events, xid.RRE)
	if rre == 0 {
		t.Fatal("no SBE pair escalated to a remap")
	}
	// SBEs themselves are silent: the only events are cascade products.
	for _, ev := range res.Events {
		if ev.Code != xid.RRE && ev.Code != xid.RRF {
			t.Fatalf("unexpected event %v from SBE episodes", ev.Code)
		}
	}
	// Escalations happen on every second hit of a hot row, so cascades are
	// bounded by half the injected SBE volume (40 episodes x mean 4).
	if rre+countCode(res.Events, xid.RRF) > 80 {
		t.Fatalf("escalations = %d, want <= half the SBE count", rre)
	}
}

func TestWorkloadRunsAndSucceeds(t *testing.T) {
	cfg := testConfig(8)
	wl := workload.DefaultConfig(8, op, 0.001)
	cfg.Workload = &wl
	res := run(t, cfg)
	if len(res.Jobs) < 1000 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	succeeded := 0
	for _, j := range res.Jobs {
		if !j.State.Terminal() {
			t.Fatalf("non-terminal job in records: %+v", j)
		}
		if j.State.Succeeded() {
			succeeded++
		}
	}
	rate := float64(succeeded) / float64(len(res.Jobs))
	// No faults configured: success = 1 - baseline failures - timeouts.
	if math.Abs(rate-0.755) > 0.04 {
		t.Fatalf("success rate = %.3f, want ~0.75", rate)
	}
	if res.CPU.Total == 0 {
		t.Fatal("CPU record missing")
	}
}

func TestEventSinkSeesAllEvents(t *testing.T) {
	cfg := testConfig(9)
	cfg.OpFaults = []faults.ProcessSpec{
		{Kind: faults.KindMMU, Episodes: 25, MeanSize: 2, MeanGap: time.Minute},
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []xid.Event
	c.SetEventSink(func(ev xid.Event) error {
		streamed = append(streamed, ev)
		return nil
	})
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(res.Events) {
		t.Fatalf("sink saw %d events, result has %d", len(streamed), len(res.Events))
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *Result {
		cfg := testConfig(10)
		cfg.OpFaults = []faults.ProcessSpec{
			{Kind: faults.KindMMU, Episodes: 40, MeanSize: 2, MeanGap: time.Minute},
			{Kind: faults.KindNVLink, Episodes: 10, MeanSize: 3, MeanGap: time.Minute},
		}
		// Software Xids land on a failed job's GPUs, so multi-node jobs
		// exercise the placement's node order.
		cfg.SoftwareXIDProb = 1
		wl := workload.DefaultConfig(10, op, 0.0005)
		cfg.Workload = &wl
		return run(t, cfg)
	}
	a, b := mk(), mk()
	if len(a.Events) != len(b.Events) || len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("runs differ: %d/%d events, %d/%d jobs",
			len(a.Events), len(b.Events), len(a.Jobs), len(b.Jobs))
	}
	for i, ea := range a.Events {
		eb := b.Events[i]
		if !ea.Time.Equal(eb.Time) || ea.Code != eb.Code || ea.Node != eb.Node ||
			ea.GPU != eb.GPU || ea.Detail != eb.Detail {
			t.Fatalf("event %d differs: %+v vs %+v", i, ea, eb)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := testConfig(11)
	cfg.Nodes4, cfg.Nodes8 = 0, 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero nodes accepted")
	}
	cfg = testConfig(11)
	cfg.Op.Start = cfg.Op.Start.Add(time.Hour)
	if _, err := New(cfg); err == nil {
		t.Fatal("period gap accepted")
	}
	cfg = testConfig(11)
	cfg.PMUPropagateProb = 1.5
	if _, err := New(cfg); err == nil {
		t.Fatal("bad probability accepted")
	}
	cfg = testConfig(11)
	cfg.Rules[faults.KindMMU] = ImpactRule{KillProb: -1}
	if _, err := New(cfg); err == nil {
		t.Fatal("bad rule accepted")
	}
	cfg = testConfig(11)
	cfg.FaultyGPU = &FaultyGPUScenario{Node: 99}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err == nil {
		t.Fatal("out-of-range faulty node accepted")
	}
}
