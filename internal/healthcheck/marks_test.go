package healthcheck_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/cluster"
	"gpuresilience/internal/faults"
	"gpuresilience/internal/healthcheck"
)

// runChecked runs cfg with a hook after every sweep asserting mark
// completeness: no Up node the monitor would skip (unmarked) violates
// policy.
func runChecked(t *testing.T, cfg cluster.Config) *cluster.Result {
	t.Helper()
	checked := 0
	defer healthcheck.SetAfterSweep(func(m *healthcheck.Monitor) {
		checked++
		if bad := m.UnmarkedViolations(); len(bad) > 0 {
			t.Fatalf("sweep %d: unmarked Up nodes violate policy: %v", m.Sweeps(), bad)
		}
	})()
	sim, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 || checked != res.HealthSweeps {
		t.Fatalf("hook saw %d sweeps, the run reports %d", checked, res.HealthSweeps)
	}
	return res
}

// TestMarksCompleteCalibrated: across the calibrated scenario's seeds, the
// cluster marks every node whose health may have changed, so skipping the
// unmarked ones never hides a device the full sweep would pull.
func TestMarksCompleteCalibrated(t *testing.T) {
	for seed := uint64(1); seed <= 7; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			runChecked(t, calib.NewScenario(seed, 0.05).Cluster)
		})
	}
}

// TestMarksCompleteFaultyGPUAndBusOff exercises every policy rule through
// the marks: the faulty GPU with its full-scale 20 uncorrectable roots
// (remap failures and spare-row burn, thresholds lowered so the monitor
// trips on them) and a bus-off campaign whose nodes no service cycle
// rescues, so only the monitor can pull those devices.
func TestMarksCompleteFaultyGPUAndBusOff(t *testing.T) {
	sc := calib.NewScenario(3, 0.05)
	cfg := sc.Cluster
	hc := *cfg.HealthCheck
	hc.MaxRemapFailures = 2
	hc.MinSpareRows = 510
	cfg.HealthCheck = &hc
	rules := make(map[faults.Kind]cluster.ImpactRule, len(cfg.Rules))
	for k, r := range cfg.Rules {
		rules[k] = r
	}
	rules[faults.KindBusOff] = cluster.ImpactRule{KillProb: 1}
	cfg.Rules = rules
	cfg.OpFaults = append(append([]faults.ProcessSpec(nil), cfg.OpFaults...),
		faults.ProcessSpec{Kind: faults.KindBusOff, Episodes: 40, MeanSize: 1, MeanGap: time.Minute})
	if cfg.FaultyGPU == nil {
		t.Fatal("the calibrated scenario has no faulty GPU")
	}
	fg := *cfg.FaultyGPU
	fg.UncorrectableRoots = 20
	cfg.FaultyGPU = &fg
	res := runChecked(t, cfg)
	reasons := map[string]int{}
	for _, a := range res.HealthActions {
		for _, r := range []string{"unreachable", "row-remap failures", "spare rows"} {
			if strings.Contains(a.Reason, r) {
				reasons[r]++
			}
		}
	}
	t.Logf("%d actions by rule: %v", len(res.HealthActions), reasons)
	if reasons["unreachable"] == 0 || reasons["row-remap failures"]+reasons["spare rows"] == 0 {
		t.Fatalf("the campaign did not exercise the policy rules: %v over %d actions", reasons, len(res.HealthActions))
	}
}
