package coalesce

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

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

// AppendKeptThrough sealing one arrival-order buffer behind rising
// cutoffs, the way the streaming engine seals its pending events, keeps
// exactly what one Events call over the whole stream keeps, and leaves the
// buffer as it was.
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
	pending := append([]xid.Event(nil), events...)
	var got []xid.Event
	for cutoff := events[0].Time.Time().Truncate(24 * time.Hour); len(pending) > 0; cutoff = cutoff.Add(37 * time.Second) {
		before := append([]xid.Event(nil), pending...)
		got = c.AppendKeptThrough(got, pending, cutoff)
		if !reflect.DeepEqual(pending, before) {
			t.Fatalf("cutoff %v: AppendKeptThrough modified its input", cutoff)
		}
		keep := pending[:0]
		for _, ev := range pending {
			if ev.Time.Time().After(cutoff) {
				keep = append(keep, ev)
			}
		}
		pending = keep
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sealed AppendKeptThrough kept %d events, one Events call %d", len(got), len(want))
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
// segment ends, and whether it is one of the segments marked in runs;
// empty segments can fall anywhere. all is the segments' concatenation.
func fuzzSegments(data []byte) (segs [][]xid.Event, all []xid.Event, runs []bool) {
	base := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	codes := []xid.Code{xid.MMU, xid.DBE, xid.NVLink}
	cur := []xid.Event{}
	for i := 0; i+2 < len(data); i += 3 {
		a, b, s := data[i], data[i+1], data[i+2]
		if s&4 != 0 {
			segs, runs = append(segs, nil), append(runs, s&16 != 0) // an empty segment before this event
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
			segs, runs, cur = append(segs, cur), append(runs, s&8 != 0), []xid.Event{}
		}
	}
	return append(segs, cur), all, append(runs, len(data) > 0 && data[len(data)-1]&32 != 0)
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

// FuzzStage2Runs: Merge over a segmentation of events, some segments
// handed over as runs of their events stably sorted into Stage II order,
// placed where the segments were, equals the oracle over the events'
// concatenation at Δt 0 and at DefaultWindow, whichever segments are runs
// and however many runs share a place. The input decodes as in
// FuzzStage2Segments, with two more bits of each third byte marking the
// segment it closes, or the empty one it opens, as a run.
func FuzzStage2Runs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 8, 0, 0, 0, 3, 5, 2, 0, 0, 12})
	f.Add([]byte{0, 0, 8, 0, 0, 8, 0, 0, 0, 0, 0, 24, 0, 0, 0})
	f.Add([]byte{9, 1, 0, 2, 1, 9, 2, 1, 0, 9, 1, 3, 7, 7, 0x3f})
	f.Fuzz(func(t *testing.T, data []byte) {
		segs, all, marked := fuzzSegments(data)
		var plain [][]xid.Event
		var runs []Run
		for i, seg := range segs {
			if !marked[i] {
				plain = append(plain, seg)
				continue
			}
			sorted := sliceCursor(slices.Clone(seg))
			slices.SortStableFunc(sorted, Compare)
			runs = append(runs, Run{At: len(plain), Len: len(seg), Cursor: &sorted})
		}
		for _, window := range []time.Duration{0, DefaultWindow} {
			want, err := oracleEvents(all, window)
			if err != nil {
				t.Fatal(err)
			}
			// Each window reads fresh cursors.
			fresh := slices.Clone(runs)
			for j, r := range fresh {
				c := slices.Clone(*r.Cursor.(*sliceCursor))
				fresh[j].Cursor = (*sliceCursor)(&c)
			}
			got, err := Merge(plain, fresh, window)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("window %v over %d segments and %d runs: got %v, want %v", window, len(plain), len(runs), got, want)
			}
		}
	})
}

// Merge rejects a run placed past the segments or before an earlier run.
func TestMergeRejectsMisplacedRuns(t *testing.T) {
	segs := [][]xid.Event{randomEvents(1, 3)}
	for _, runs := range [][]Run{
		{{At: 2, Cursor: new(sliceCursor)}},
		{{At: -1, Cursor: new(sliceCursor)}},
		{{At: 1, Cursor: new(sliceCursor)}, {At: 0, Cursor: new(sliceCursor)}},
	} {
		if _, err := Merge(segs, runs, DefaultWindow); err == nil {
			t.Fatalf("runs placed at %v accepted", runs)
		}
	}
}

// FuzzStage2Segments: Stage II over events held in segments equals the
// oracle over their concatenation, at Δt 0 and at DefaultWindow. Each
// three input bytes make one event (a coarse time, so same-instant ties
// are common, and a key drawn from few nodes, GPUs and codes; Detail tags
// its input position, so full ties show any reordering) and decide where
// the segment ends; empty segments can fall anywhere.
func FuzzStage2Segments(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 3, 5, 2, 0, 0, 4})
	f.Add([]byte{9, 1, 0, 2, 1, 1, 2, 1, 0, 9, 1, 3, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		segs, all, _ := fuzzSegments(data)
		orig := make([][]xid.Event, len(segs))
		for i, seg := range segs {
			orig[i] = append([]xid.Event(nil), seg...)
		}
		for _, window := range []time.Duration{0, DefaultWindow} {
			want, err := oracleEvents(all, window)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Segments(segs, window)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
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
