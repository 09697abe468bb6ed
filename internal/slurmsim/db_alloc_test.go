package slurmsim_test

import (
	"bytes"
	"runtime"
	"testing"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/cluster"
	"gpuresilience/internal/slurmsim"
)

// loadDBBytesPerRowBound is the allocation LoadDB may spend per row of the
// seed-1, scale-0.05 dump (72,516 jobs): the 72-byte record, its pointer,
// and the shared placements (1,580 distinct), texts and scanner state. That
// measures 101.9 B/row; the bound leaves some 13% for the arenas' last
// partly used blocks.
const loadDBBytesPerRowBound = 115

// TestLoadDBBytesPerRow pins LoadDB's allocation per row over a realistic
// dump, the simulator's own at seed 1 and scale 0.05.
func TestLoadDBBytesPerRow(t *testing.T) {
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
	data := dump.Bytes()
	var rows int
	perRow := make([]float64, 3)
	for i := range perRow {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		jobs, err := slurmsim.LoadDB(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		rows = len(jobs)
		perRow[i] = float64(after.TotalAlloc-before.TotalAlloc) / float64(rows)
	}
	best := min(perRow[0], perRow[1], perRow[2])
	t.Logf("LoadDB: %d rows, %.1f B/row (runs %.1f)", rows, best, perRow)
	if best > loadDBBytesPerRowBound {
		t.Fatalf("LoadDB allocates %.1f B/row, bound %d", best, loadDBBytesPerRowBound)
	}
}
