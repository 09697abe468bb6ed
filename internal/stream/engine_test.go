package stream_test

import (
	"fmt"
	"testing"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/core"
	"gpuresilience/internal/stream"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// testConfig is a minimal valid stream config: the paper's pipeline
// settings, no static inputs.
func testConfig() stream.Config {
	return stream.Config{
		Pipeline: core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes),
	}
}

// opT returns a timestamp inside the op period, where the test events live.
func opT(offset time.Duration) time.Time {
	return calib.Op().Start.Add(24*time.Hour + offset)
}

func event(offset time.Duration, node string, gpu int, code xid.Code) xid.Event {
	return xid.Event{Time: xid.Time(opT(offset).UnixNano()), Node: node, GPU: int32(gpu), Code: code}
}

func newEngine(t *testing.T) *stream.Engine {
	t.Helper()
	eng, err := stream.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestOutOfOrderWithinHorizon: events arriving out of time order — but
// within the sealing horizon — land in the sealed store in canonical
// order, exactly as the batch sort would place them.
func TestOutOfOrderWithinHorizon(t *testing.T) {
	eng := newEngine(t)
	feed := stream.NewFeed(eng, "feed")
	// Arrival order scrambles time order; all gaps are under the 20s horizon.
	offsets := []time.Duration{5 * time.Second, 0, 12 * time.Second, 3 * time.Second, 8 * time.Second}
	for i, off := range offsets {
		if err := feed.Event(event(off, fmt.Sprintf("gpub%03d", i), 0, xid.MMU)); err != nil {
			t.Fatal(err)
		}
	}
	// Push the watermark far past all of them, sealing everything.
	if err := feed.Event(event(time.Hour, "gpub999", 0, xid.NVLink)); err != nil {
		t.Fatal(err)
	}
	eng.Advance()
	st := eng.Status()
	if st.SealedRawEvents != 5 {
		t.Fatalf("sealed %d raw events, want 5", st.SealedRawEvents)
	}
	if st.Quarantine.Late != 0 {
		t.Fatalf("quarantined %d events that were inside the horizon", st.Quarantine.Late)
	}
	// Distinct keys, no coalescing: all five kept.
	if st.SealedEvents != 5 {
		t.Fatalf("kept %d events, want 5", st.SealedEvents)
	}
}

// TestLateEventQuarantined: an event behind the sealed watermark is
// counted and sampled, never silently dropped, and the sealed store does
// not change.
func TestLateEventQuarantined(t *testing.T) {
	eng := newEngine(t)
	feed := stream.NewFeed(eng, "feed")
	if err := feed.Event(event(0, "gpub001", 0, xid.MMU)); err != nil {
		t.Fatal(err)
	}
	if err := feed.Event(event(time.Hour, "gpub002", 0, xid.MMU)); err != nil {
		t.Fatal(err)
	}
	eng.Advance() // watermark = t0+1h-20s, first event sealed
	before := eng.Status()
	if before.SealedRawEvents != 1 {
		t.Fatalf("sealed %d, want 1", before.SealedRawEvents)
	}

	// 30 minutes behind the watermark: late.
	if err := feed.Event(event(30*time.Minute, "gpub003", 2, xid.NVLink)); err != nil {
		t.Fatal(err)
	}
	st := eng.Status()
	if st.Quarantine.Late != 1 {
		t.Fatalf("late count = %d, want 1", st.Quarantine.Late)
	}
	if len(st.Quarantine.Samples) != 1 {
		t.Fatalf("quarantine samples = %d, want 1", len(st.Quarantine.Samples))
	}
	s := st.Quarantine.Samples[0]
	if s.Node != "gpub003" || s.GPU != 2 || s.Code != int(xid.NVLink) || s.Source != "feed" {
		t.Fatalf("sample = %+v", s)
	}
	if !s.Watermark.Equal(before.Watermark) {
		t.Fatalf("sample watermark %v, want %v", s.Watermark, before.Watermark)
	}
	if st.SealedRawEvents != before.SealedRawEvents || st.PendingEvents != before.PendingEvents {
		t.Fatal("late event mutated the store")
	}

	// The sample cap bounds memory; the count stays exact.
	for i := 0; i < 2*stream.DefaultQuarantineSample; i++ {
		if err := feed.Event(event(time.Duration(i)*time.Second, "gpub004", 0, xid.MMU)); err != nil {
			t.Fatal(err)
		}
	}
	st = eng.Status()
	if want := int64(1 + 2*stream.DefaultQuarantineSample); st.Quarantine.Late != want {
		t.Fatalf("late count = %d, want %d", st.Quarantine.Late, want)
	}
	if len(st.Quarantine.Samples) != stream.DefaultQuarantineSample {
		t.Fatalf("samples = %d, want cap %d", len(st.Quarantine.Samples), stream.DefaultQuarantineSample)
	}
}

// TestDuplicateDelivery: lines redelivered at or below a source's consumed
// line number are absorbed — counted as dups, not re-ingested.
func TestDuplicateDelivery(t *testing.T) {
	eng := newEngine(t)
	line := string(syslog.AppendLine(nil, event(0, "gpub001", 0, xid.MMU), 0, "test"))
	for _, n := range []int64{1, 2, 2, 1} {
		if err := eng.ConsumeLine("src", n, line); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Status()
	if st.Extract.Lines != 2 {
		t.Fatalf("consumed %d lines, want 2 (dups excluded)", st.Extract.Lines)
	}
	if len(st.Sources) != 1 || st.Sources[0].Dups != 2 {
		t.Fatalf("sources = %+v, want 2 dups", st.Sources)
	}
	if st.Sources[0].Lines != 2 {
		t.Fatalf("line high-water = %d, want 2", st.Sources[0].Lines)
	}
}

// TestClockRegression: a source whose event timestamps run backwards is
// counted per regression but its events still flow (they are within the
// horizon, so correctness is unaffected — the seal reorders them).
func TestClockRegression(t *testing.T) {
	eng := newEngine(t)
	feed := stream.NewFeed(eng, "feed")
	offsets := []time.Duration{10 * time.Second, 5 * time.Second, 15 * time.Second, 14 * time.Second}
	for i, off := range offsets {
		if err := feed.Event(event(off, fmt.Sprintf("gpub%03d", i), 0, xid.MMU)); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Status()
	if len(st.Sources) != 1 || st.Sources[0].ClockRegressions != 2 {
		t.Fatalf("clock regressions = %+v, want 2", st.Sources)
	}
	if st.PendingEvents != 4 {
		t.Fatalf("pending = %d, want all 4 events accepted", st.PendingEvents)
	}
	if !st.Sources[0].LastEvent.Equal(opT(15 * time.Second)) {
		t.Fatalf("last event = %v, want the max, not the latest arrival", st.Sources[0].LastEvent)
	}
}

// TestMalformedCounted: a line matching the Xid shape with unparseable
// fields is counted as malformed and skipped — the batch extractor's
// accounting, so streaming and batch Extract stats stay identical.
func TestMalformedCounted(t *testing.T) {
	eng := newEngine(t)
	// Xid-shaped but with a PCI address outside the device map.
	bad := "2023-05-01T00:00:00.000000Z gpub001 kernel: NVRM: Xid (PCI:dead:beef): 31, pid=1, name=x, d"
	if err := eng.ConsumeLine("src", 1, bad); err != nil {
		t.Fatalf("malformed line returned an error: %v", err)
	}
	if err := eng.ConsumeLine("src", 2, "not a log line"); err != nil {
		t.Fatal(err)
	}
	st := eng.Status()
	if st.Extract.Malformed != 1 || st.Extract.Skipped != 1 || st.Extract.Lines != 2 {
		t.Fatalf("extract stats = %+v, want 1 malformed + 1 noise", st.Extract)
	}
}

// TestOutOfRangeTimestampMalformed: the daemon's Stage I applies the batch
// rule that an instant the event record cannot hold is malformed, so it
// neither becomes an event nor moves the stream's clocks.
func TestOutOfRangeTimestampMalformed(t *testing.T) {
	eng := newEngine(t)
	for i, line := range []string{
		"2300-01-01T00:00:00.000000Z gpub001 kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p, year 2300",
		"1600-01-01T00:00:00.000000Z gpub002 kernel: NVRM: Xid (PCI:0000:27:00): 31, pid=1, name=p, year 1600",
	} {
		if err := eng.ConsumeLine("src", int64(i+1), line); err != nil {
			t.Fatalf("out-of-range line returned an error: %v", err)
		}
	}
	st := eng.Status()
	if st.Extract.Malformed != 2 || st.Extract.XIDLines != 0 || st.PendingEvents != 0 || !st.MaxEventTime.IsZero() {
		t.Fatalf("status = %+v, want 2 malformed lines and no event", st)
	}
}

// TestOpenStateBounded is the memory-bound guarantee: over a multi-hour
// replay with a churning key population, the engine's resident state
// (pending buffer + tracked coalescing keys) stays proportional to the
// horizon, not to the stream length.
func TestOpenStateBounded(t *testing.T) {
	eng := newEngine(t)
	feed := stream.NewFeed(eng, "feed")
	const (
		events  = 60000
		spacing = 500 * time.Millisecond // 60k events over ~8.3 hours
		keys    = 2000                   // far more than ever fit in a horizon
	)
	maxOpen := 0
	for i := 0; i < events; i++ {
		node := fmt.Sprintf("gpub%04d", i%keys)
		if err := feed.Event(event(time.Duration(i)*spacing, node, i%4, xid.MMU)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%100 == 0 {
			eng.Advance()
			if open := eng.Status().OpenState(); open > maxOpen {
				maxOpen = open
			}
		}
	}
	// Events within one horizon: 20s / 500ms = 40. Between Advance calls up
	// to 100 more can pend, and coalescing windows linger one window past
	// the watermark. A bound of 250 is ~4x the steady state and ~250x below
	// the stream's 60k events / 2k keys.
	if maxOpen > 250 {
		t.Fatalf("open state peaked at %d; resident state is not horizon-bounded", maxOpen)
	}
	eng.FlushAll()
	st := eng.Status()
	if st.SealedRawEvents != events {
		t.Fatalf("sealed %d raw events, want %d", st.SealedRawEvents, events)
	}
	if st.PendingEvents != 0 {
		t.Fatalf("pending = %d after flush", st.PendingEvents)
	}
}
