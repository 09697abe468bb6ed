package core

import (
	"bytes"
	"runtime"
	"testing"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/cluster"
	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/slurmsim"
)

// jobDBPassBytesPerRowBound is what the raw-logs path's job-DB pass may
// allocate per row of the seed-1, scale-0.05 dump (72,516 jobs): the
// scanner and the interned vocabularies, Table II's tally, and Table III's
// elapsed minutes, 8 bytes per counted job in blocks plus the buffer its
// largest bucket is gathered into. That measures about 16.7 B/row; LoadDB
// alone keeps some 102 (TestLoadDBBytesPerRow).
const jobDBPassBytesPerRowBound = 20

// TestJobDBPassBytesPerRow pins the allocation of the whole job-DB pass,
// scanJobDB over a StageIII that holds the run's coalesced events, on the
// simulator's own dump at seed 1 and scale 0.05.
func TestJobDBPassBytesPerRow(t *testing.T) {
	sim, err := cluster.New(calib.NewScenario(1, 0.05).Cluster)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := slurmsim.DumpDB(&dump, truth.Jobs); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes)
	events, err := coalesce.Events(truth.Events, cfg.CoalesceWindow)
	if err != nil {
		t.Fatal(err)
	}
	rows := len(truth.Jobs)
	perRow := make([]float64, 3)
	for i := range perRow {
		s, err := newStageIII(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Add(events); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err = s.scanJobDB(bytes.NewReader(dump.Bytes()), truth.CPU)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if s.pass.Jobs() != rows {
			t.Fatalf("pass saw %d jobs, want %d", s.pass.Jobs(), rows)
		}
		perRow[i] = float64(after.TotalAlloc-before.TotalAlloc) / float64(rows)
	}
	best := min(perRow[0], perRow[1], perRow[2])
	t.Logf("job-DB pass: %d rows, %.1f B/row (runs %.1f)", rows, best, perRow)
	if best > jobDBPassBytesPerRowBound {
		t.Fatalf("job-DB pass allocates %.1f B/row, bound %d", best, jobDBPassBytesPerRowBound)
	}
}
