package ingest_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/cluster"
	"gpuresilience/internal/ingest"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// TestSegmentsBytesPerEvent bounds what ExtractSegments allocates per
// event on the benchmark's inputs: seed 1 at scale 0.05 (60,510 events),
// split into 8 shards, parsed with no cache (cold) and served from a
// filled one (warm). Stage I's buffers are its output, so the bytes are
// about one 48-byte event each plus the scan's and decoder's own; a run
// that copies its events again lands far above the bounds. Measured with
// Go 1.24 on linux/amd64: 61.0 B/event cold and 58.6 warm; 86.9 and 86.7
// while the event was 72 bytes and each shard's hash allocated its own
// read buffer, and 201.6 and 158.8 when every run also copied its events
// into one exact-size slice. Each bound is the measurement plus 15%.
func TestSegmentsBytesPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 0.05-scale fleet")
	}
	plan := benchShards(t, 8)
	perEvent := func(cache *ingest.Cache) float64 {
		var b []float64
		for range 5 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res, err := ingest.ExtractSegments(plan, ingest.Options{Workers: 2, Cache: cache})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, seg := range res.Segments {
				n += len(seg)
			}
			b = append(b, float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
		}
		slices.Sort(b)
		return b[len(b)/2]
	}
	cache := ingest.NewCache(t.TempDir())
	if _, err := ingest.ExtractSegments(plan, ingest.Options{Workers: 2, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		cache *ingest.Cache
		bound float64
	}{{"cold", nil, 70}, {"warm", cache, 67}} {
		got := perEvent(c.cache)
		t.Logf("%s: %.1f B/event", c.name, got)
		if got > c.bound {
			t.Errorf("%s: %.1f B/event, bound %.0f", c.name, got, c.bound)
		}
	}
}

// benchShards simulates seed 1 at scale 0.05, emits its raw log and writes
// it as n shard files of equal line counts, returning their plan.
func benchShards(t *testing.T, n int) ingest.Plan {
	t.Helper()
	sim, err := cluster.New(calib.NewScenario(1, 0.05).Cluster)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	w, err := syslog.NewWriter(&log, syslog.DefaultWriterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetEventSink(func(ev xid.Event) error {
		_, err := w.WriteEvent(ev)
		return err
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lines := bytes.SplitAfter(log.Bytes(), []byte("\n"))
	per := (len(lines) + n - 1) / n
	for i := range n {
		part := lines[min(i*per, len(lines)):min((i+1)*per, len(lines))]
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("shard_%02d.log", i)), bytes.Join(part, nil), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := ingest.PlanFiles([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}
