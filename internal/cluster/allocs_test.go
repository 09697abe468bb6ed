package cluster_test

import (
	"testing"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/cluster"
)

// TestClusterRunAllocsPerJob guards the simulator's per-job paths against
// heap allocation: jobs live in one slab, placements in scheduler arenas,
// and ends, submissions and sweeps reuse callbacks bound once. What is left
// is per-node, per-episode and per-arena-block, so a calibrated run stays
// far below one allocation per generated job; a per-job closure or object
// that comes back pushes it over.
func TestClusterRunAllocsPerJob(t *testing.T) {
	const budget = 0.5
	cfg := calib.NewScenario(1, 0.01).Cluster
	jobs := 0
	allocs := testing.AllocsPerRun(1, func() {
		sim, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		jobs = len(res.Jobs)
	})
	if jobs == 0 {
		t.Fatal("the scenario generated no jobs")
	}
	perJob := allocs / float64(jobs)
	t.Logf("%.0f allocations for %d jobs: %.3f per job", allocs, jobs, perJob)
	if perJob > budget {
		t.Fatalf("%.3f allocations per generated job, budget %.1f", perJob, budget)
	}
}
