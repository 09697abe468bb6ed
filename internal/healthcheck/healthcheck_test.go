package healthcheck

import (
	"strings"
	"testing"
	"time"

	"gpuresilience/internal/gpusim"
	"gpuresilience/internal/nodesim"
	"gpuresilience/internal/randx"
	"gpuresilience/internal/simclock"
)

var t0 = time.Date(2022, 10, 1, 0, 0, 0, 0, time.UTC)

func fleet(t *testing.T, eng *simclock.Engine, n int, gpuCfg gpusim.Config) []*nodesim.Node {
	t.Helper()
	nodeCfg := nodesim.DefaultConfig()
	nodeCfg.HealthCheckFailProb = 0
	nodes := make([]*nodesim.Node, n)
	for i := range nodes {
		node, err := nodesim.New("gpub00"+string(rune('1'+i)), 4, gpuCfg, nodeCfg,
			eng, randx.NewStream(uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	return nodes
}

func TestMonitorReplacesFailedDevice(t *testing.T) {
	eng := simclock.NewEngine(t0)
	nodes := fleet(t, eng, 2, gpusim.DefaultConfig())
	m, err := New(DefaultConfig(), eng, randx.NewStream(7), nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(t0.Add(24 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	// A device falls off the bus 90 minutes in, after the first sweep
	// found the fleet clean, so the node must be marked to be inspected.
	if _, err := eng.Schedule(t0.Add(90*time.Minute), func() {
		nodes[1].GPU(2).MarkFailed()
		m.Mark(1)
	}); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()

	actions := m.Actions()
	if len(actions) != 1 {
		t.Fatalf("actions = %+v", actions)
	}
	a := actions[0]
	if a.Node != "gpub002" || a.GPU != 2 || !strings.Contains(a.Reason, "unreachable") {
		t.Fatalf("action = %+v", a)
	}
	// The device was swapped and the node is back up.
	if nodes[1].GPU(2).Failed() || !nodes[1].Up() {
		t.Fatal("device not replaced")
	}
	if nodes[1].SwapCount() != 1 {
		t.Fatalf("swaps = %d", nodes[1].SwapCount())
	}
	if m.Sweeps() < 20 {
		t.Fatalf("sweeps = %d over 24h at 1h interval", m.Sweeps())
	}
}

func TestMonitorPullsRemapFailureDevice(t *testing.T) {
	eng := simclock.NewEngine(t0)
	gpuCfg := gpusim.DefaultConfig()
	gpuCfg.Memory.RemapFailProb = 1
	gpuCfg.Memory.AccessBeforeRemapProb = 0
	nodes := fleet(t, eng, 1, gpuCfg)
	cfg := DefaultConfig()
	cfg.MaxRemapFailures = 3
	cfg.MinSpareRows = 0
	m, err := New(cfg, eng, randx.NewStream(8), nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(t0.Add(12 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	rng := randx.NewStream(9)
	if _, err := eng.Schedule(t0.Add(30*time.Minute), func() {
		for i := 0; i < 3; i++ {
			nodes[0].GPU(1).Uncorrectable(eng.Now(), rng)
		}
		m.Mark(0)
	}); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	actions := m.Actions()
	if len(actions) != 1 || !strings.Contains(actions[0].Reason, "row-remap failures") {
		t.Fatalf("actions = %+v", actions)
	}
	if nodes[0].GPU(1).Memory.RemapFailures() != 0 {
		t.Fatal("device with RRFs not replaced")
	}
}

func TestMonitorPullsSpareExhaustedDevice(t *testing.T) {
	eng := simclock.NewEngine(t0)
	gpuCfg := gpusim.DefaultConfig()
	gpuCfg.Memory.SpareRows = 4
	gpuCfg.Memory.AccessBeforeRemapProb = 0
	nodes := fleet(t, eng, 1, gpuCfg)
	cfg := DefaultConfig()
	cfg.MaxRemapFailures = 0
	cfg.MinSpareRows = 2
	m, err := New(cfg, eng, randx.NewStream(10), nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(t0.Add(6 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	rng := randx.NewStream(11)
	if _, err := eng.Schedule(t0.Add(time.Minute), func() {
		for i := 0; i < 3; i++ { // 4 - 3 = 1 spare left < 2
			nodes[0].GPU(0).Uncorrectable(eng.Now(), rng)
		}
		m.Mark(0)
	}); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if len(m.Actions()) != 1 || !strings.Contains(m.Actions()[0].Reason, "spare rows") {
		t.Fatalf("actions = %+v", m.Actions())
	}
}

func TestMonitorHealthyFleetNoActions(t *testing.T) {
	eng := simclock.NewEngine(t0)
	nodes := fleet(t, eng, 3, gpusim.DefaultConfig())
	m, err := New(DefaultConfig(), eng, randx.NewStream(12), nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(t0.Add(48 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if len(m.Actions()) != 0 {
		t.Fatalf("healthy fleet produced actions: %+v", m.Actions())
	}
}

func TestMonitorSkipsNodesInService(t *testing.T) {
	eng := simclock.NewEngine(t0)
	nodes := fleet(t, eng, 1, gpusim.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Interval = 10 * time.Minute
	cfg.Jitter = 0
	m, err := New(cfg, eng, randx.NewStream(13), nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	// Fail a device AND put the node into service; the monitor must not
	// intervene while the node is already being recovered.
	if _, err := eng.Schedule(t0.Add(time.Minute), func() {
		nodes[0].GPU(0).MarkFailed()
		nodes[0].BeginService("manual")
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run(t0.Add(12 * time.Minute))
	if nodes[0].Up() {
		t.Skip("service finished too fast for this seed")
	}
	if len(m.Actions()) != 0 {
		t.Fatalf("monitor acted on a node in service: %+v", m.Actions())
	}
	eng.RunAll()
}

func TestConfigValidation(t *testing.T) {
	eng := simclock.NewEngine(t0)
	nodes := fleet(t, eng, 1, gpusim.DefaultConfig())
	bad := DefaultConfig()
	bad.Interval = 0
	if _, err := New(bad, eng, randx.NewStream(1), nodes); err == nil {
		t.Fatal("zero interval accepted")
	}
	bad = DefaultConfig()
	bad.Jitter = bad.Interval
	if _, err := New(bad, eng, randx.NewStream(1), nodes); err == nil {
		t.Fatal("jitter >= interval accepted")
	}
	bad = DefaultConfig()
	bad.MinSpareRows = -1
	if _, err := New(bad, eng, randx.NewStream(1), nodes); err == nil {
		t.Fatal("negative threshold accepted")
	}
	if _, err := New(DefaultConfig(), nil, randx.NewStream(1), nodes); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := New(DefaultConfig(), eng, randx.NewStream(1), nil); err == nil {
		t.Fatal("empty fleet accepted")
	}
}

func TestStartPastHorizonIsNoop(t *testing.T) {
	eng := simclock.NewEngine(t0)
	nodes := fleet(t, eng, 1, gpusim.DefaultConfig())
	m, err := New(DefaultConfig(), eng, randx.NewStream(14), nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(t0.Add(time.Minute)); err != nil { // horizon < interval
		t.Fatal(err)
	}
	eng.RunAll()
	if m.Sweeps() != 0 {
		t.Fatalf("sweeps = %d", m.Sweeps())
	}
}

// TestMonitorInspectsOnlyMarkedNodes: a device that fails after its node
// inspected clean goes unseen until the owner marks the node, and is pulled
// at the first sweep after the mark.
func TestMonitorInspectsOnlyMarkedNodes(t *testing.T) {
	eng := simclock.NewEngine(t0)
	nodes := fleet(t, eng, 2, gpusim.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Jitter = 0
	m, err := New(cfg, eng, randx.NewStream(15), nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(t0.Add(12 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	// The first sweep (1h) finds the fleet clean; the device fails unmarked.
	if _, err := eng.Schedule(t0.Add(90*time.Minute), nodes[0].GPU(1).MarkFailed); err != nil {
		t.Fatal(err)
	}
	eng.Run(t0.Add(5 * time.Hour))
	if len(m.Actions()) != 0 {
		t.Fatalf("monitor inspected an unmarked node: %+v", m.Actions())
	}
	m.Mark(0)
	eng.RunAll()
	actions := m.Actions()
	if len(actions) != 1 || actions[0].Node != "gpub001" || actions[0].GPU != 1 ||
		!actions[0].Time.Equal(t0.Add(6*time.Hour)) {
		t.Fatalf("actions = %+v, want gpub001 GPU 1 pulled at the 6h sweep", actions)
	}
}
