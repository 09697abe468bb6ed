package obs_test

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"time"

	"gpuresilience/internal/obs"
	"gpuresilience/internal/parallel"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// The overhead guard holds the instrumentation to its zero-cost promise:
// the metered Stage I hot path must run within guardMaxOver of the
// unmetered one. Samples are tightly paired (off then on, back-to-back),
// and the verdict is the median of the per-pair on/off ratios: each pair
// sees near-identical machine conditions, so its ratio cancels most
// scheduler and GC noise, and the median ignores the pairs a stall hit on
// one side only — noise that on a loaded CI box dwarfs the effect being
// measured, and that a min-of-N comparison let through whenever one side
// drew the luckier minimum.
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

// medianOver times off and on back-to-back guardSamples times and returns
// the median per-pair overhead, on/off - 1. Two bias controls: the pair
// order alternates every sample (so neither variant systematically
// inherits the other's scheduling wake), and a forced GC precedes every
// timed run (so collection pauses seeded by one variant's garbage never
// land in the other's timing window).
func medianOver(tb testing.TB, off, on func()) float64 {
	tb.Helper()
	off() // warm up caches, pools, and the GC heap shape
	on()
	ratios := make([]float64, guardSamples)
	for i := range ratios {
		if i%2 == 0 {
			offNs := timed(off)
			ratios[i] = timed(on) / offNs
		} else {
			onNs := timed(on)
			ratios[i] = onNs / timed(off)
		}
	}
	return median(ratios) - 1
}

// timed runs fn after a forced GC and returns its wall time in ns.
func timed(fn func()) float64 {
	runtime.GC()
	t0 := time.Now()
	fn()
	return float64(time.Since(t0))
}

// median sorts xs and returns its median.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

// extractRun returns one Stage I extraction of data with the given meter.
func extractRun(tb testing.TB, data []byte, meter parallel.WorkerMeter) func() {
	return func() {
		_, _, err := syslog.Extract(bytes.NewReader(data), syslog.Options{Workers: guardWorkers, Meter: meter},
			func(xid.Event) error { return nil })
		if err != nil {
			tb.Fatal(err)
		}
	}
}

func TestExtractOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing comparison is meaningless under the race detector")
	}
	data := buildLog(t, 3000)
	reg := obs.New()
	sp := reg.StartSpan("guard.extract")
	over := medianOver(t, extractRun(t, data, nil), extractRun(t, data, sp.ObserveWorker))
	t.Logf("ExtractParallel metered overhead: %+.2f%%", 100*over)
	if over > guardMaxOver {
		t.Errorf("metered ExtractParallel is %.1f%% slower than unmetered (budget %.0f%%)",
			100*over, 100*guardMaxOver)
	}
}

// TestExtractOverheadGuardCatchesSeededOverhead holds the guard to its
// purpose: a meter that costs a tenth of the run, seeded as an extra
// metered extraction of a log a tenth the size, must land over the 5%
// budget.
func TestExtractOverheadGuardCatchesSeededOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing comparison is meaningless under the race detector")
	}
	sp := obs.New().StartSpan("guard.extract")
	metered := extractRun(t, buildLog(t, 3000), sp.ObserveWorker)
	tenth := extractRun(t, buildLog(t, 300), sp.ObserveWorker)
	over := medianOver(t, extractRun(t, buildLog(t, 3000), nil), func() {
		metered()
		tenth()
	})
	t.Logf("seeded +10%% meter: measured overhead %+.2f%%", 100*over)
	if over <= guardMaxOver {
		t.Errorf("the guard passed a meter that adds 10%%: measured %+.1f%%, budget %.0f%%",
			100*over, 100*guardMaxOver)
	}
}
