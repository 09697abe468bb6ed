package stream_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"gpuresilience/internal/core"
	"gpuresilience/internal/stream"
	"gpuresilience/internal/xid"
)

// blockLen is how many events one of the engine's blocks holds
// (coalesce.Blocks).
const blockLen = 341

// sealStep is one step of a block-boundary case: feed the next events
// lines, then seal by Advance, or by FlushAll with flush, and check
// Results against batch Analyze.
type sealStep struct {
	events int
	flush  bool
	// pending and sealed are the raw events the step expects pending
	// before its seal and sealed by it.
	pending, sealed int
}

// TestSealsAtBlockBoundaries: seals whose pending buffer sits exactly at,
// just past and at twice a block's length, a seal that takes everything
// and one that takes nothing, and seals that append into a partly filled
// last sealed block, with Results between them. After every step the
// engine's Results equal batch core.Analyze over the sealed lines, and
// its pending and sealed events fill whole blocks but the last.
//
// The events are 100 ms apart on keys that repeat only after 21.2 s, with
// every tenth a duplicate of the one before 1 s later, so an Advance
// leaves the last 20 s or so of what was fed pending, and Stage II keeps
// nine events in ten.
func TestSealsAtBlockBoundaries(t *testing.T) {
	cases := map[string][]sealStep{
		"pending 341, flushed":  {{events: 341, flush: true, pending: 341, sealed: 341}},
		"pending 342, flushed":  {{events: 342, flush: true, pending: 342, sealed: 342}},
		"pending 682, flushed":  {{events: 682, flush: true, pending: 682, sealed: 682}},
		"pending 682, advanced": {{events: 682, pending: 682, sealed: 489}, {events: 300, flush: true, pending: 493, sealed: 493}},
		"takes nothing":         {{events: 150, pending: 150, sealed: 0}, {events: 0, pending: 150, sealed: 0}, {events: 1, flush: true, pending: 151, sealed: 151}},
		"partly filled sealed block": {
			{events: 300, pending: 300, sealed: 109},
			{events: 300, pending: 491, sealed: 300},
			{events: 41, pending: 232, sealed: 40},
			{events: 300, pending: 492, sealed: 300},
			{events: 0, flush: true, pending: 192, sealed: 192},
		},
	}
	for name, steps := range cases {
		t.Run(name, func(t *testing.T) {
			eng := newEngine(t)
			feed := stream.NewFeed(eng, "feed")
			var fed []xid.Event
			for k, step := range steps {
				for range step.events {
					ev := blockEvent(len(fed))
					if err := feed.Event(ev); err != nil {
						t.Fatal(err)
					}
					fed = append(fed, ev)
				}
				before := eng.Status()
				var sealed int
				if step.flush {
					sealed = eng.FlushAll()
				} else {
					sealed = eng.Advance()
				}
				if before.PendingEvents != step.pending || sealed != step.sealed {
					t.Fatalf("step %d: sealed %d of %d pending (%d kept in all), want %d of %d",
						k, sealed, before.PendingEvents, eng.Status().SealedEvents, step.sealed, step.pending)
				}
				requireWholeBlocks(t, eng)
				requireBatchResults(t, eng, fed)
			}
		})
	}
}

// blockEvent is the i-th event of TestSealsAtBlockBoundaries' stream.
func blockEvent(i int) xid.Event {
	if i%10 == 9 {
		dup := blockEvent(i - 1)
		dup.Time += xid.Time(time.Second)
		return dup
	}
	codes := []xid.Code{31, 48, 63, 74, 79, 94, 119}
	ev := event(time.Duration(i)*100*time.Millisecond, fmt.Sprintf("gpub%03d", 1+i%53), i%4, codes[i%len(codes)])
	ev.Detail = "fault"
	return ev
}

// requireWholeBlocks fails unless every block of the engine's pending and
// sealed events but the last is full and none is empty.
func requireWholeBlocks(t *testing.T, eng *stream.Engine) {
	t.Helper()
	cp := eng.Checkpoint()
	for name, blocks := range map[string][][]xid.Event{"pending": cp.Pending, "sealed": cp.Sealed} {
		for i, b := range blocks {
			if len(b) == 0 || len(b) > blockLen || (i < len(blocks)-1 && len(b) != blockLen) {
				t.Fatalf("%s block %d of %d holds %d events", name, i, len(blocks), len(b))
			}
		}
	}
}

// requireBatchResults fails unless the engine's Results equal batch
// Analyze over the fed events at or before its watermark.
func requireBatchResults(t *testing.T, eng *stream.Engine, fed []xid.Event) {
	t.Helper()
	st := eng.Status()
	var sealed []xid.Event
	for _, ev := range fed {
		if !st.Watermark.IsZero() && !ev.Time.Time().After(st.Watermark) {
			sealed = append(sealed, ev)
		}
	}
	got, err := eng.Results()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Analyze(sealed, nil, nil, testConfig().CPU, testConfig().Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	want.Extract = got.Extract
	if got.RawEvents != len(sealed) || got.CoalescedEvents != st.SealedEvents || !reflect.DeepEqual(got, want) {
		t.Fatalf("Results over %d sealed raw events (%d kept) differ from batch Analyze over %d (%d kept)",
			got.RawEvents, got.CoalescedEvents, len(sealed), want.CoalescedEvents)
	}
}

// replayBytesBound is what one replay of the fixture log, in batches of
// replayBatchLines lines with an Advance after each, may allocate beyond
// the blocks its pending and sealed events fill at their peak: the seal's
// sort index, the coalescer's key map, the source and quarantine records
// and the lines Stage I cannot parse without allocating.
const (
	replayBatchLines = 4096
	replayBytesBound = 64 << 10
)

// TestReplayAllocatesWholeBlocks is the engine's allocation floor: the
// events a replay holds cost whole 16 KiB blocks, recycled from one seal
// to the next, so a replay allocates those blocks at their peak count and
// little more. A pending or sealed store grown as one slice allocates
// several times its final size and fails it.
func TestReplayAllocatesWholeBlocks(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	f := loadFixture(t)
	replay := func(observe func(*stream.Engine)) {
		eng := newEngine(t)
		feed := stream.NewFeed(eng, "syslog")
		for lo := 0; lo < len(f.lines); lo += replayBatchLines {
			for _, line := range f.lines[lo:min(lo+replayBatchLines, len(f.lines))] {
				if err := feed.Line(line); err != nil {
					t.Fatal(err)
				}
			}
			observe(eng)
			eng.Advance()
		}
		eng.FlushAll()
		observe(eng)
	}
	// A first replay learns the peak block counts; Status allocates, so
	// the measured replays observe nothing.
	peakPending, sealed := 0, 0
	replay(func(eng *stream.Engine) {
		st := eng.Status()
		peakPending = max(peakPending, st.PendingEvents)
		sealed = st.SealedEvents
	})
	blocks := (peakPending+blockLen-1)/blockLen + (sealed+blockLen-1)/blockLen
	const blockBytes = 16 << 10
	runs := make([]uint64, 3)
	for i := range runs {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		replay(func(*stream.Engine) {})
		runtime.ReadMemStats(&after)
		runs[i] = after.TotalAlloc - before.TotalAlloc
	}
	best := min(runs[0], runs[1], runs[2])
	storage := uint64(blocks * blockBytes)
	t.Logf("replay of %d lines: %d B (runs %d); %d blocks for %d peak pending and %d sealed events hold %d B",
		len(f.lines), best, runs, blocks, peakPending, sealed, storage)
	if peakPending <= blockLen || sealed <= blockLen {
		t.Fatalf("the replay fills too few blocks to pin: %d peak pending, %d sealed", peakPending, sealed)
	}
	if best > storage+replayBytesBound {
		t.Fatalf("replay allocates %d B, want at most %d B of blocks + %d", best, storage, replayBytesBound)
	}
}
