package ingest

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/xid"
)

// randomStream builds n events with heavily colliding timestamps, out of
// time order, tagged through Detail with their origin so any reordering of
// tied events shows.
func randomStream(rng *rand.Rand, shard, n int) []xid.Event {
	base := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	events := make([]xid.Event, n)
	for i := range events {
		events[i] = xid.Event{
			Time:   xid.Time(base.Add(time.Duration(rng.Intn(8)) * time.Second).UnixNano()),
			Node:   fmt.Sprintf("gpub%03d", rng.Intn(4)),
			GPU:    int32(rng.Intn(8)),
			Code:   xid.Code(rng.Intn(150)),
			Detail: fmt.Sprintf("s%d#%d", shard, i),
		}
	}
	return events
}

// referenceMerge is the time-ordered view of a sharded run: the shards
// concatenated in plan order, then stable-sorted by time only, so tied
// events keep plan order and source-line order.
func referenceMerge(shards [][]xid.Event) []xid.Event {
	var all []xid.Event
	for _, s := range shards {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(i, k int) bool { return all[i].Time < all[k].Time })
	return all
}

// Property: Stage II cannot tell the concatenated shards from their
// time-ordered merge. Its stable sort is by time first, and restricted to
// any set of equal-timestamp events the two orders agree, so the coalesced
// streams are identical even when the shards interleave in time.
func TestStageIIIgnoresShardInterleaving(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		shards := make([][]xid.Event, 1+rng.Intn(6))
		for i := range shards {
			// Sizes include empty and single-event shards often.
			shards[i] = randomStream(rng, i, rng.Intn(12))
		}
		for _, window := range []time.Duration{0, coalesce.DefaultWindow} {
			want, err := coalesce.Events(referenceMerge(shards), window)
			if err != nil {
				t.Fatal(err)
			}
			got, err := coalesce.Events(concatShards(shards), window)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d window %v: Stage II over the concatenation diverges from the merge\n got: %v\nwant: %v",
					trial, window, got, want)
			}
		}
	}
}

// The shards of a run merge into one stream by concatenation: all-empty
// shards give nil.
func TestMergeShardsAllEmpty(t *testing.T) {
	if got := concatShards([][]xid.Event{nil, {}, nil}); got != nil {
		t.Fatalf("all-empty concatenation: %v", got)
	}
}

// A single non-empty shard is returned as is, without a copy.
func TestMergeShardsSingleNonEmptyFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomStream(rng, 0, 20)
	want := append([]xid.Event(nil), s...)
	got := concatShards([][]xid.Event{nil, s, {}})
	if &got[0] != &s[0] || len(got) != len(s) {
		t.Fatal("a single non-empty shard was copied")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("single non-empty shard fast path diverges")
	}
}

func TestConcatShards(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randomStream(rng, 0, 5), randomStream(rng, 1, 7)
	want := append(append([]xid.Event(nil), a...), b...)
	if got := concatShards([][]xid.Event{a, nil, b}); !reflect.DeepEqual(got, want) {
		t.Fatalf("concatenation out of plan order:\n got: %v\nwant: %v", got, want)
	}
}
