package coalesce

import (
	"fmt"
	"testing"
	"time"

	"gpuresilience/internal/xid"
)

func mkEvent(t0 time.Time, offset time.Duration, node string, gpu int, code xid.Code) xid.Event {
	return xid.Event{Time: xid.Time(t0.Add(offset).UnixNano()), Node: node, GPU: int32(gpu), Code: code}
}

func TestEvictBefore(t *testing.T) {
	t0 := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	c, err := New(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(mkEvent(t0, 0, "a", 0, xid.MMU))
	c.Add(mkEvent(t0, 30*time.Second, "b", 1, xid.MMU))
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	// Cutoff at t0+10s: entry "a" (last t0, window 5s) is dead; "b" is live.
	if n := c.EvictBefore(t0.Add(10 * time.Second)); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("Len after evict = %d, want 1", got)
	}
	// Boundary: an entry at exactly last+window == cutoff is evictable,
	// because the window check is half-open (ev.Time < last+window drops).
	if n := c.EvictBefore(t0.Add(35 * time.Second)); n != 1 {
		t.Fatalf("boundary evict = %d, want 1", n)
	}
}

// TestEvictionPreservesOutput proves the eviction rule is output-invariant:
// a coalescer that evicts behind a watermark keeps exactly the same events
// as one that never evicts, as long as events arrive after the watermark.
func TestEvictionPreservesOutput(t *testing.T) {
	t0 := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	const window = 5 * time.Second
	full, _ := New(window)
	evicting, _ := New(window)
	// Bursts of duplicates on a key population that churns over time, so an
	// unbounded coalescer accumulates tracked keys while an evicting one
	// stays at the live set.
	var events []xid.Event
	for i := 0; i < 500; i++ {
		base := time.Duration(i) * 7 * time.Second
		node := fmt.Sprintf("gpub%03d", i%250)
		events = append(events,
			mkEvent(t0, base, node, i%4, xid.MMU),
			mkEvent(t0, base+time.Second, node, i%4, xid.MMU), // dup inside window
			mkEvent(t0, base+2*time.Second, "b", 1, xid.NVLink),
		)
	}
	for i, ev := range events {
		kf := full.Add(ev)
		ke := evicting.Add(ev)
		if kf != ke {
			t.Fatalf("event %d: full kept=%v evicting kept=%v", i, kf, ke)
		}
		// The watermark guarantee: everything after this arrives later than
		// ev.Time - 20s.
		evicting.EvictBefore(ev.Time.Time().Add(-20 * time.Second))
	}
	if full.Kept() != evicting.Kept() {
		t.Fatalf("kept diverged: %d vs %d", full.Kept(), evicting.Kept())
	}
	if evicting.Len() >= full.Len() {
		t.Fatalf("eviction freed nothing: %d vs %d tracked keys", evicting.Len(), full.Len())
	}
}

func TestStateRestore(t *testing.T) {
	t0 := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	const window = 5 * time.Second
	orig, _ := New(window)
	events := []xid.Event{
		mkEvent(t0, 0, "a", 0, xid.MMU),
		mkEvent(t0, time.Second, "a", 0, xid.MMU),
		mkEvent(t0, 2*time.Second, "b", 3, xid.NVLink),
	}
	for _, ev := range events {
		orig.Add(ev)
	}
	entries, raw, kept := orig.State()
	if raw != 3 || kept != 2 {
		t.Fatalf("state raw=%d kept=%d, want 3/2", raw, kept)
	}
	if len(entries) != 2 {
		t.Fatalf("state entries = %d, want 2", len(entries))
	}
	// Deterministic order: sorted by (node, gpu, code).
	if entries[0].Key.Node != "a" || entries[1].Key.Node != "b" {
		t.Fatalf("state order = %v", entries)
	}

	restored, err := Restore(window, entries, raw, kept)
	if err != nil {
		t.Fatal(err)
	}
	// The restored coalescer must make identical decisions from here on.
	probes := []xid.Event{
		mkEvent(t0, 3*time.Second, "a", 0, xid.MMU),     // inside window: drop
		mkEvent(t0, 10*time.Second, "b", 3, xid.NVLink), // outside: keep
	}
	for i, ev := range probes {
		a, b := orig.Add(ev), restored.Add(ev)
		if a != b {
			t.Fatalf("probe %d: orig kept=%v restored kept=%v", i, a, b)
		}
	}
	if orig.Kept() != restored.Kept() || orig.Raw() != restored.Raw() {
		t.Fatalf("counters diverged: %d/%d vs %d/%d", orig.Raw(), orig.Kept(), restored.Raw(), restored.Kept())
	}

	if _, err := Restore(-time.Second, nil, 0, 0); err == nil {
		t.Fatal("Restore accepted a negative window")
	}
}
