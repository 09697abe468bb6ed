package coalesce

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"gpuresilience/internal/randx"
	"gpuresilience/internal/xid"
)

// oracleLess is the canonical Stage II order written as a less function,
// independently of Compare.
func oracleLess(a, b xid.Event) bool {
	if !a.Time.Equal(b.Time) {
		return a.Time.Before(b.Time)
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
			Time:   base.Add(time.Duration(rng.Intn(500)) * time.Second),
			Node:   []string{"gpub001", "gpub002", "gpub003"}[rng.Intn(3)],
			GPU:    rng.Intn(4),
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

// The pooled scratch must never leak into a returned slice: a result held
// across a later call on other input stays as it was.
func TestEventsPoolDoesNotAlias(t *testing.T) {
	first, err := Events(randomEvents(11, 4000), DefaultWindow)
	if err != nil {
		t.Fatal(err)
	}
	held := append([]xid.Event(nil), first...)
	for seed := uint64(12); seed < 16; seed++ {
		if _, err := Events(randomEvents(seed, 6000), 0); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(first, held) {
		t.Fatal("a later Events call rewrote an earlier call's result")
	}
}

// AddBatch fed batch after batch, each later than the previous one in
// time, keeps exactly what one Events call over the whole stream keeps.
func TestAddBatchAcrossBatches(t *testing.T) {
	events := randomEvents(21, 3000)
	want, err := Events(events, DefaultWindow)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]xid.Event(nil), events...)
	sort.SliceStable(sorted, func(i, k int) bool { return sorted[i].Time.Before(sorted[k].Time) })
	c, err := New(DefaultWindow)
	if err != nil {
		t.Fatal(err)
	}
	var got []xid.Event
	for lo := 0; lo < len(sorted); {
		hi := lo + 1
		for hi < len(sorted) && (hi-lo < 97 || sorted[hi].Time.Equal(sorted[hi-1].Time)) {
			hi++
		}
		got = append(got, c.AddBatch(append([]xid.Event(nil), sorted[lo:hi]...))...)
		lo = hi
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batched AddBatch kept %d events, one Events call %d", len(got), len(want))
	}
}

// Pins Events' steady-state allocations at the value measured with Go 1.24:
// the Coalescer with its key map, grown to the input's 72 keys (nine
// between them), and the exact-size result. The working copy comes from the pool, so an input-sized
// copy per call would fail this.
func TestEventsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
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
	const want = 10
	if allocs > want {
		t.Fatalf("Events allocates %.1f times per call, want at most %d", allocs, want)
	}
}
