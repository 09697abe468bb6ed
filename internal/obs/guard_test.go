package obs_test

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"gpuresilience/internal/obs"
	"gpuresilience/internal/parallel"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// The overhead guard holds the instrumentation to its zero-cost promise:
// the metered Stage I hot path must run within guardMaxOver of the
// unmetered one. Samples are tightly paired (off then on,
// back-to-back) and the comparison is min-of-N — the standard defenses
// against one-sided scheduler and GC noise, which on a loaded CI box
// dwarfs the effect being measured.
const (
	guardMaxOver = 0.05
	guardSamples = 60
	guardWorkers = 4
)

// buildLog emits a messy raw log through the real writer, mirroring the
// syslog package's own test helper.
func buildLog(tb testing.TB, events int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := syslog.NewWriter(&buf, syslog.DefaultWriterConfig(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	base := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	codes := []xid.Code{xid.MMU, xid.NVLink, xid.DBE, xid.GSPError}
	for i := 0; i < events; i++ {
		ev := xid.Event{
			Time:   base.Add(time.Duration(i) * 7 * time.Second),
			Node:   []string{"gpub001", "gpub002", "gpub003"}[i%3],
			GPU:    i % 4,
			Code:   codes[i%len(codes)],
			Detail: "detail",
		}
		if _, err := w.WriteEvent(ev); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// minOver times off and on back-to-back guardSamples times and returns
// the overhead of min(on) over min(off). Each pair runs within
// milliseconds of the other, so both variants sample near-identical
// machine conditions; the minimum over many samples is the closest
// observable estimate of the true (noise-free) cost of each path. Two
// extra bias controls: the pair order alternates every sample (so
// neither variant systematically inherits the other's scheduling wake),
// and a forced GC precedes every timed run (so collection pauses seeded
// by one variant's garbage never land in the other's timing window).
func minOver(tb testing.TB, off, on func()) float64 {
	tb.Helper()
	off() // warm up caches, pools, and the GC heap shape
	on()
	timed := func(fn func()) time.Duration {
		runtime.GC()
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	var offNs, onNs time.Duration
	record := func(d time.Duration, best *time.Duration) {
		if *best == 0 || d < *best {
			*best = d
		}
	}
	for i := 0; i < guardSamples; i++ {
		if i%2 == 0 {
			record(timed(off), &offNs)
			record(timed(on), &onNs)
		} else {
			record(timed(on), &onNs)
			record(timed(off), &offNs)
		}
	}
	return float64(onNs)/float64(offNs) - 1
}

func TestExtractOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing comparison is meaningless under the race detector")
	}
	data := buildLog(t, 3000)
	run := func(meter parallel.WorkerMeter) func() {
		return func() {
			_, _, err := syslog.Extract(bytes.NewReader(data), syslog.Options{Workers: guardWorkers, Meter: meter},
				func(xid.Event) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	reg := obs.New()
	sp := reg.StartSpan("guard.extract")
	over := minOver(t, run(nil), run(sp.ObserveWorker))
	t.Logf("ExtractParallel metered overhead: %+.2f%%", 100*over)
	if over > guardMaxOver {
		t.Errorf("metered ExtractParallel is %.1f%% slower than unmetered (budget %.0f%%)",
			100*over, 100*guardMaxOver)
	}
}
