package coalesce

import (
	"testing"
	"testing/quick"
	"time"

	"gpuresilience/internal/xid"
)

var t0 = time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)

func ev(offset time.Duration, node string, gpu int, code xid.Code) xid.Event {
	return xid.Event{Time: xid.Time(t0.Add(offset).UnixNano()), Node: node, GPU: int32(gpu), Code: code}
}

func TestDuplicatesWithinWindowDropped(t *testing.T) {
	c, err := New(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Add(ev(0, "n1", 0, xid.MMU)) {
		t.Fatal("first occurrence dropped")
	}
	for _, d := range []time.Duration{100 * time.Millisecond, time.Second, 4999 * time.Millisecond} {
		if c.Add(ev(d, "n1", 0, xid.MMU)) {
			t.Fatalf("duplicate at +%v kept", d)
		}
	}
	if !c.Add(ev(5*time.Second, "n1", 0, xid.MMU)) {
		t.Fatal("event at window edge dropped (window is half-open)")
	}
	if c.Raw() != 5 || c.Kept() != 2 {
		t.Fatalf("raw=%d kept=%d", c.Raw(), c.Kept())
	}
}

func TestDistinctKeysNotCoalesced(t *testing.T) {
	c, err := New(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	events := []xid.Event{
		ev(0, "n1", 0, xid.MMU),
		ev(time.Millisecond, "n1", 1, xid.MMU),      // different GPU
		ev(2*time.Millisecond, "n2", 0, xid.MMU),    // different node
		ev(3*time.Millisecond, "n1", 0, xid.NVLink), // different code
	}
	for i, e := range events {
		if !c.Add(e) {
			t.Fatalf("event %d wrongly coalesced", i)
		}
	}
}

func TestWindowAnchoredAtKept(t *testing.T) {
	// A dup train must not extend the window: events at 0s, 3s, 6s with a
	// 5s window keep 0s and 6s (3s is within 5s of the kept 0s; 6s is not).
	c, err := New(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, d := range []time.Duration{0, 3 * time.Second, 6 * time.Second} {
		if c.Add(ev(d, "n", 0, xid.GSPRPCTimeout)) {
			kept++
		}
	}
	if kept != 2 {
		t.Fatalf("kept = %d, want 2 (anchored window)", kept)
	}
}

func TestZeroWindowKeepsEverything(t *testing.T) {
	c, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !c.Add(ev(time.Duration(i)*time.Millisecond, "n", 0, xid.MMU)) {
			t.Fatal("zero window dropped an event")
		}
	}
}

func TestNegativeWindowRejected(t *testing.T) {
	if _, err := New(-time.Second); err == nil {
		t.Fatal("negative window accepted")
	}
}

func TestSlightlyOutOfOrderDuplicateDropped(t *testing.T) {
	c, err := New(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Add(ev(time.Second, "n", 0, xid.MMU)) {
		t.Fatal("first dropped")
	}
	// A duplicate line timestamped just before the kept one (log interleaving).
	if c.Add(ev(900*time.Millisecond, "n", 0, xid.MMU)) {
		t.Fatal("out-of-order duplicate kept")
	}
}

func TestEventsBatchSortsFirst(t *testing.T) {
	events := []xid.Event{
		ev(10*time.Second, "n", 0, xid.MMU),
		ev(0, "n", 0, xid.MMU),
		ev(time.Second, "n", 0, xid.MMU), // dup of the 0s event once sorted
	}
	out, err := Events(events, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("kept %d, want 2", len(out))
	}
	if !out[0].Time.Time().Equal(t0) || !out[1].Time.Time().Equal(t0.Add(10*time.Second)) {
		t.Fatalf("kept wrong events: %v", out)
	}
}

// TestBurstCoalescing reproduces the paper's headline dedup example in
// miniature: a persistent fault logging duplicate lines collapses to the
// per-repeat count, not the line count.
func TestBurstCoalescing(t *testing.T) {
	var raw []xid.Event
	// 100 true repeats spaced 40 s apart, each with 25 duplicate lines
	// spaced 100 ms.
	for i := 0; i < 100; i++ {
		base := time.Duration(i) * 40 * time.Second
		for d := 0; d < 25; d++ {
			raw = append(raw, ev(base+time.Duration(d)*100*time.Millisecond,
				"gpub013", 3, xid.UncontainedMem))
		}
	}
	out, err := Events(raw, DefaultWindow)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("coalesced to %d, want 100", len(out))
	}
}

// Property: coalescing is idempotent — coalescing an already-coalesced
// stream keeps every event.
func TestIdempotenceProperty(t *testing.T) {
	f := func(offsets []uint32) bool {
		raw := make([]xid.Event, len(offsets))
		for i, off := range offsets {
			raw[i] = ev(time.Duration(off)*time.Millisecond, "n", int(off%4), xid.MMU)
		}
		once, err := Events(raw, DefaultWindow)
		if err != nil {
			return false
		}
		twice, err := Events(once, DefaultWindow)
		if err != nil {
			return false
		}
		return len(once) == len(twice)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a wider window never keeps more events.
func TestMonotoneWindowProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		raw := make([]xid.Event, len(offsets))
		for i, off := range offsets {
			raw[i] = ev(time.Duration(off)*time.Second, "n", 0, xid.NVLink)
		}
		narrow, err := Events(raw, time.Second)
		if err != nil {
			return false
		}
		wide, err := Events(raw, time.Minute)
		if err != nil {
			return false
		}
		return len(wide) <= len(narrow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
