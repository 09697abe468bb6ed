package coalesce

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"gpuresilience/internal/randx"
	"gpuresilience/internal/xid"
)

// oracleLess is the canonical Stage II order written as a less function,
// independently of Compare.
func oracleLess(a, b xid.Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.GPU != b.GPU {
		return a.GPU < b.GPU
	}
	return a.Code < b.Code
}

// oracleEvents is Stage II written the plain way: copy, stable-sort, offer
// every event to a fresh Coalescer. Events must match it exactly.
func oracleEvents(events []xid.Event, window time.Duration) ([]xid.Event, error) {
	c, err := New(window)
	if err != nil {
		return nil, err
	}
	sorted := make([]xid.Event, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(i, k int) bool { return oracleLess(sorted[i], sorted[k]) })
	out := make([]xid.Event, 0, len(sorted))
	for _, ev := range sorted {
		if c.Add(ev) {
			out = append(out, ev)
		}
	}
	return out, nil
}

// randomEvents builds a stream with heavy key collisions, duplicate
// timestamps, out-of-order arrivals, and full-key ties told apart only by
// Detail: the structures that separate a stable canonical order from a
// lucky one.
func randomEvents(seed uint64, n int) []xid.Event {
	rng := randx.NewStream(seed)
	codes := []xid.Code{xid.MMU, xid.DBE, xid.RRE, xid.NVLink, xid.UncontainedMem, xid.GSPError}
	base := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	out := make([]xid.Event, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, xid.Event{
			// Coarse buckets force same-instant ties across distinct keys.
			Time:   xid.Time(base.Add(time.Duration(rng.Intn(500)) * time.Second).UnixNano()),
			Node:   []string{"gpub001", "gpub002", "gpub003"}[rng.Intn(3)],
			GPU:    int32(rng.Intn(4)),
			Code:   codes[rng.Intn(len(codes))],
			Detail: fmt.Sprintf("#%d", i),
		})
	}
	return out
}

// Property: Events equals the oracle on random tie-heavy inputs of every
// size, at every window including the window=0 "no dedup" ablation, and
// leaves its input untouched.
func TestEventsMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		events := randomEvents(seed, int(seed*seed*7)%5000)
		orig := append([]xid.Event(nil), events...)
		for _, window := range []time.Duration{0, time.Second, 5 * time.Second, time.Minute} {
			want, err := oracleEvents(events, window)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Events(events, window)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed=%d n=%d window=%v: Events diverges from the oracle (got %d events, want %d)",
					seed, len(events), window, len(got), len(want))
			}
			if !reflect.DeepEqual(events, orig) {
				t.Fatalf("seed=%d window=%v: Events modified its input", seed, window)
			}
		}
	}
}

// TestKeptNonIncreasingInWindow is ablation relation A1: greedy Δt
// coalescing keeps a minimum cover of each key's events by windows, so
// Events never keeps more at a wider window, on the tie-heavy random
// inputs over cmd/ablate's Δt grid and a few windows between its points.
func TestKeptNonIncreasingInWindow(t *testing.T) {
	windows := []time.Duration{0, time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second,
		30 * time.Second, time.Minute, 2 * time.Minute, 5 * time.Minute, 30 * time.Minute}
	for seed := uint64(1); seed <= 40; seed++ {
		events := randomEvents(seed, int(seed*seed*7)%5000)
		prev := len(events)
		for _, window := range windows {
			kept, err := Events(events, window)
			if err != nil {
				t.Fatal(err)
			}
			if len(kept) > prev {
				t.Fatalf("seed=%d n=%d: window %v keeps %d events, more than %d at a narrower one",
					seed, len(events), window, len(kept), prev)
			}
			prev = len(kept)
		}
	}
}

// EventsParallel is Events at every worker count, including the window=0
// "no dedup" ablation.
func TestEventsParallelEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		events := randomEvents(seed, 6000)
		for _, window := range []time.Duration{0, time.Second, 5 * time.Second, time.Minute} {
			want, err := Events(events, window)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1, 2, 3, 5, 16} {
				got, err := EventsParallel(events, window, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed=%d window=%v workers=%d: EventsParallel diverges from Events "+
						"(got %d events, want %d)", seed, window, workers, len(got), len(want))
				}
			}
		}
	}
}

func TestEventsParallelSmallInput(t *testing.T) {
	events := randomEvents(7, 100)
	want, err := oracleEvents(events, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EventsParallel(events, 5*time.Second, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("small input diverges from the oracle")
	}
	if _, err := EventsParallel(events, -time.Second, 8); err == nil {
		t.Fatal("negative window accepted")
	}
	if _, err := Events(events, -time.Second); err == nil {
		t.Fatal("negative window accepted")
	}
}

func TestEventsParallelEmpty(t *testing.T) {
	got, err := EventsParallel(nil, 5*time.Second, 4)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty input: %v %v", got, err)
	}
}

// AppendKeptThrough sealing one arrival-order buffer of blocks behind
// rising cutoffs, the way the streaming engine seals its pending events,
// keeps exactly what one Events call over the whole stream keeps, and
// leaves the buffer as it was. DropThrough then removes what each seal
// took, keeping the rest in arrival order and recycling whole blocks, and
// the sealed events fill whole blocks.
func TestAppendKeptThroughAcrossSeals(t *testing.T) {
	events := randomEvents(21, 3000)
	want, err := Events(events, DefaultWindow)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(DefaultWindow)
	if err != nil {
		t.Fatal(err)
	}
	var pending, got Blocks
	var spare [][]xid.Event
	for _, ev := range events {
		pending.Append(ev, &spare)
	}
	rest := slices.Clone(events)
	for cutoff := events[0].Time.Time().Truncate(24 * time.Hour); len(pending) > 0; cutoff = cutoff.Add(37 * time.Second) {
		before := pending.Clone()
		kept := c.AppendKeptThrough(&got, pending, cutoff)
		if !reflect.DeepEqual(pending, before) {
			t.Fatalf("cutoff %v: AppendKeptThrough modified its input", cutoff)
		}
		through, _ := xid.Latest(cutoff)
		rest = slices.DeleteFunc(rest, func(ev xid.Event) bool { return ev.Time <= through })
		dropped := pending.DropThrough(through, &spare)
		if got := slices.Concat(pending...); len(got) != len(rest) || (len(rest) > 0 && !reflect.DeepEqual(got, rest)) {
			t.Fatalf("cutoff %v: DropThrough left %d events, want the %d after the cutoff in arrival order", cutoff, len(got), len(rest))
		}
		merged(t, pending)
		if dropped < kept || pending.Len()+dropped != before.Len() {
			t.Fatalf("cutoff %v: kept %d and dropped %d of %d, leaving %d", cutoff, kept, dropped, before.Len(), pending.Len())
		}
		for _, blk := range spare {
			if len(blk) != 0 || cap(blk) != keptBlock || slices.ContainsFunc(blk[:cap(blk)], func(ev xid.Event) bool { return ev != xid.Event{} }) {
				t.Fatalf("cutoff %v: a spare block holds events", cutoff)
			}
		}
	}
	if all := merged(t, got); !reflect.DeepEqual(all, want) {
		t.Fatalf("sealed AppendKeptThrough kept %d events, one Events call %d", len(all), len(want))
	}
}

// Pins Events' steady-state allocations at the value measured with Go 1.24:
// the Coalescer with its key map, grown to the input's 72 keys (nine
// between them), the index and the exact-size result.
func TestEventsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes the allocation count")
	}
	events := randomEvents(31, 20000)
	if _, err := Events(events, DefaultWindow); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Events(events, DefaultWindow); err != nil {
			t.Fatal(err)
		}
	})
	const want = 11
	if allocs > want {
		t.Fatalf("Events allocates %.1f times per call, want at most %d", allocs, want)
	}
}

// fuzzSegments decodes fuzz input into events held in segments: each three
// bytes make one event (a coarse time, so same-instant ties are common,
// and a key drawn from few nodes, GPUs and codes; Detail tags its input
// position, so full ties show any reordering) and decide where the
// segment ends, and whether it is one of the segments marked in marked;
// empty segments can fall anywhere. all is the segments' concatenation.
func fuzzSegments(data []byte) (segs [][]xid.Event, all []xid.Event, marked []bool) {
	base := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	codes := []xid.Code{xid.MMU, xid.DBE, xid.NVLink}
	cur := []xid.Event{}
	for i := 0; i+2 < len(data); i += 3 {
		a, b, s := data[i], data[i+1], data[i+2]
		if s&4 != 0 {
			segs, marked = append(segs, nil), append(marked, s&16 != 0) // an empty segment before this event
		}
		ev := xid.Event{
			Time:   xid.Time(base.Add(time.Duration(a%32) * 1500 * time.Millisecond).UnixNano()),
			Node:   []string{"gpub001", "gpub002"}[b&1],
			GPU:    int32(int(b>>1) & 1),
			Code:   codes[int(b>>2)%len(codes)],
			Detail: fmt.Sprintf("#%d", i/3),
		}
		cur = append(cur, ev)
		all = append(all, ev)
		if s&3 == 0 {
			segs, marked, cur = append(segs, cur), append(marked, s&8 != 0), []xid.Event{}
		}
	}
	return append(segs, cur), all, append(marked, len(data) > 0 && data[len(data)-1]&32 != 0)
}

// sliceCursor reads a slice's events in order.
type sliceCursor []xid.Event

func (c *sliceCursor) Next(ev *xid.Event) bool {
	if len(*c) == 0 {
		return false
	}
	*ev, *c = (*c)[0], (*c)[1:]
	return true
}

// presorted is a run of events stably sorted into Stage II order, read
// from a copy, the way a cache hit hands over its shard.
func presorted(events []xid.Event) Run {
	sorted := sliceCursor(slices.Clone(events))
	slices.SortStableFunc(sorted, Compare)
	return Run{Len: len(sorted), Cursor: &sorted}
}

// merged is Merge's kept blocks joined, after checking that every block
// but the last is full.
func merged(t *testing.T, blocks [][]xid.Event) []xid.Event {
	t.Helper()
	for i, b := range blocks {
		if len(b) > keptBlock || (i < len(blocks)-1 && len(b) != keptBlock) {
			t.Fatalf("block %d of %d holds %d events", i, len(blocks), len(b))
		}
	}
	return slices.Concat(blocks...)
}

// FuzzStage2Segments: Merge over one Sorted run of events held in
// segments equals the oracle over their concatenation, at Δt 0 and at
// DefaultWindow, and leaves the segments as they were. The input decodes
// as fuzzSegments says; empty segments can fall anywhere.
func FuzzStage2Segments(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 3, 5, 2, 0, 0, 4})
	f.Add([]byte{9, 1, 0, 2, 1, 1, 2, 1, 0, 9, 1, 3, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		segs, all, _ := fuzzSegments(data)
		orig := make([][]xid.Event, len(segs))
		for i, seg := range segs {
			orig[i] = slices.Clone(seg)
		}
		for _, window := range []time.Duration{0, DefaultWindow} {
			want, err := oracleEvents(all, window)
			if err != nil {
				t.Fatal(err)
			}
			blocks, err := Merge([]Run{Sorted(segs)}, window)
			if err != nil {
				t.Fatal(err)
			}
			if got := merged(t, blocks); len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("window %v over %d segments: got %v, want %v", window, len(segs), got, want)
			}
			for i := range segs {
				if len(segs[i]) != len(orig[i]) || (len(orig[i]) > 0 && !reflect.DeepEqual(segs[i], orig[i])) {
					t.Fatalf("window %v: segment %d modified", window, i)
				}
			}
		}
	})
}

// FuzzStage2Runs: Merge over several runs equals the oracle over the runs'
// concatenation in plan order, at Δt 0 and at DefaultWindow. Each marked
// segment is a presorted run, as a cache hit is; each stretch of unmarked
// segments between them is one Sorted run over that segmentation, as a
// parsed stream is. The input decodes as in FuzzStage2Segments, with two
// more bits of each third byte marking the segment it closes, or the
// empty one it opens.
func FuzzStage2Runs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 8, 0, 0, 0, 3, 5, 2, 0, 0, 12})
	f.Add([]byte{0, 0, 8, 0, 0, 8, 0, 0, 0, 0, 0, 24, 0, 0, 0})
	f.Add([]byte{9, 1, 0, 2, 1, 9, 2, 1, 0, 9, 1, 3, 7, 7, 0x3f})
	f.Add([]byte{9, 1, 0, 2, 1, 20, 2, 1, 0, 9, 1, 3, 7, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		segs, _, marked := fuzzSegments(data)
		for _, window := range []time.Duration{0, DefaultWindow} {
			// Each window reads fresh cursors.
			var runs []Run
			var all []xid.Event
			for i := 0; i < len(segs); {
				if marked[i] {
					runs = append(runs, presorted(segs[i]))
					all = append(all, segs[i]...)
					i++
					continue
				}
				j := i
				for j < len(segs) && !marked[j] {
					all = append(all, segs[j]...)
					j++
				}
				runs = append(runs, Sorted(segs[i:j]))
				i = j
			}
			want, err := oracleEvents(all, window)
			if err != nil {
				t.Fatal(err)
			}
			blocks, err := Merge(runs, window)
			if err != nil {
				t.Fatal(err)
			}
			if got := merged(t, blocks); len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("window %v over %d runs: got %v, want %v", window, len(runs), got, want)
			}
		}
	})
}

// Merge over many kept events fills full blocks and equals the oracle over
// the runs' concatenation, with runs of both kinds.
func TestMergeMatchesOracle(t *testing.T) {
	events := randomEvents(41, 9000)
	for _, window := range []time.Duration{0, DefaultWindow} {
		runs := []Run{
			Sorted([][]xid.Event{events[:1000], nil, events[1000:2500]}),
			presorted(events[2500:6000]),
			{Cursor: new(sliceCursor)},
			Sorted([][]xid.Event{events[6000:]}),
		}
		want, err := oracleEvents(events, window)
		if err != nil {
			t.Fatal(err)
		}
		blocks, err := Merge(runs, window)
		if err != nil {
			t.Fatal(err)
		}
		if got := merged(t, blocks); !reflect.DeepEqual(got, want) {
			t.Fatalf("window %v: Merge kept %d events, the oracle %d", window, len(got), len(want))
		}
	}
	if _, err := Merge(nil, -time.Second); err == nil {
		t.Fatal("negative window accepted")
	}
}

// TestMergeAllocationFloor: Merge copies each kept event once, into its
// blocks, so over runs that allocate nothing as they are read it
// allocates at most mergeSlack × kept × the size of an event, plus
// mergeFixed bytes: the last block's unused tail (under 16 KiB), the
// Coalescer with its key map, the heap of run heads and the block list.
// The bound is measured as runtime.MemStats TotalAlloc over repeated
// calls, on 20,000 tie-heavy events in eight presorted runs (72 keys,
// 5,672 kept at DefaultWindow). With Go 1.24 that reads 1.06 × kept ×
// 48 bytes, everything included. A join of the blocks into one slice, or
// any second copy of the kept events, adds a whole kept × 48 bytes and
// fails.
func TestMergeAllocationFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes the allocation count")
	}
	const (
		mergeSlack = 1.1
		mergeFixed = 32 << 10
		calls      = 20
	)
	events := randomEvents(43, 20000)
	var parts [][]xid.Event
	for i := 0; i < len(events); i += len(events) / 8 {
		parts = append(parts, events[i:min(i+len(events)/8, len(events))])
	}
	inputs := make([][]Run, calls+1)
	for k := range inputs {
		for _, p := range parts {
			inputs[k] = append(inputs[k], presorted(p))
		}
	}
	blocks, err := Merge(inputs[calls], DefaultWindow)
	if err != nil {
		t.Fatal(err)
	}
	kept := len(slices.Concat(blocks...))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := range calls {
		if _, err := Merge(inputs[k], DefaultWindow); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / calls
	floor := float64(kept) * float64(unsafe.Sizeof(xid.Event{}))
	t.Logf("Merge: %.0f B/call for %d kept events (%.3f × kept × event size)", per, kept, per/floor)
	if per > mergeSlack*floor+mergeFixed {
		t.Fatalf("Merge allocates %.0f B/call for %d kept events, want at most %.1f × %.0f + %d",
			per, kept, mergeSlack, floor, mergeFixed)
	}
}
