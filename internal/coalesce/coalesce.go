// Package coalesce implements Stage II of the study's pipeline: error
// coalescing. The same GPU error produces multiple near-identical log lines
// in close succession; counting each line as an error would grossly
// underestimate GPU resilience (§III-B). Coalescing keeps only the first
// occurrence of each (node, GPU, XID) within a window Δt anchored at the
// last kept occurrence.
package coalesce

import (
	"cmp"
	"errors"
	"slices"
	"sort"
	"strings"
	"time"

	"gpuresilience/internal/xid"
)

// DefaultWindow is the Δt used throughout the study's reproduction. Raw
// duplicate lines arrive milliseconds apart; genuine repeats of a persistent
// fault arrive minutes apart, so a seconds-scale window separates the two.
const DefaultWindow = 5 * time.Second

// Coalescer is a streaming deduplicator. Feed it events in roughly
// increasing time order (the order raw logs are read); events that land
// inside the window of the last kept occurrence of their key are dropped
// even if they arrive slightly out of order.
type Coalescer struct {
	window   time.Duration
	lastKept map[xid.Key]xid.Time
	raw      int
	kept     int
	// order is AppendKeptThrough's index scratch, kept between calls so
	// the streaming engine's seals reuse it. It is not coalescing state.
	order []uint64
}

var errNegativeWindow = errors.New("coalesce: negative window")

// New returns a Coalescer with the given window. A zero window disables
// coalescing (every event is kept), which is the "no dedup" ablation.
func New(window time.Duration) (*Coalescer, error) {
	return newSized(window, 0)
}

// newSized is New with a map presized for keys distinct keys, for a
// caller that knows how many it will hold.
func newSized(window time.Duration, keys int) (*Coalescer, error) {
	if window < 0 {
		return nil, errNegativeWindow
	}
	return &Coalescer{
		window:   window,
		lastKept: make(map[xid.Key]xid.Time, keys),
	}, nil
}

// Add offers one raw event and reports whether it was kept (i.e. it is the
// first occurrence of its key within the window).
func (c *Coalescer) Add(ev xid.Event) bool {
	c.raw++
	key := ev.Key()
	if last, seen := c.lastKept[key]; seen && ev.Time.Within(last, c.window) {
		return false
	}
	c.lastKept[key] = ev.Time
	c.kept++
	return true
}

// Raw returns how many events were offered.
func (c *Coalescer) Raw() int { return c.raw }

// Kept returns how many events were kept.
func (c *Coalescer) Kept() int { return c.kept }

// Len returns how many distinct keys the coalescer currently tracks — the
// streaming daemon's "open windows" gauge.
func (c *Coalescer) Len() int { return len(c.lastKept) }

// EvictBefore drops tracked keys whose window can no longer suppress
// anything: once the caller guarantees every future event's timestamp is
// after cutoff (the streaming watermark gives exactly that guarantee), an
// entry whose last kept time plus the window is at or before cutoff would
// keep any future event anyway, so forgetting it cannot change the output.
// Returns how many entries were evicted. This is what bounds a long-running
// coalescer's state by the number of open windows instead of the number of
// keys ever seen.
func (c *Coalescer) EvictBefore(cutoff time.Time) int {
	// last+window <= cutoff exactly when last <= cutoff-window.
	through, ok := xid.Latest(cutoff.Add(-c.window))
	if !ok {
		return 0
	}
	n := 0
	for k, last := range c.lastKept {
		if last <= through {
			delete(c.lastKept, k)
			n++
		}
	}
	return n
}

// KeyState is one tracked coalescing key and the time of its last kept
// occurrence — the unit of a checkpointed coalescer.
type KeyState struct {
	// Key is the (node, GPU, code) coalescing identity.
	Key xid.Key `json:"key"`
	// Last is when the key's last kept occurrence happened.
	Last xid.Time `json:"last"`
}

// State snapshots the coalescer for checkpointing: the tracked keys sorted
// deterministically, plus the raw/kept totals. Restore rebuilds an
// equivalent coalescer from it.
func (c *Coalescer) State() (entries []KeyState, raw, kept int) {
	entries = make([]KeyState, 0, len(c.lastKept))
	for k, last := range c.lastKept {
		entries = append(entries, KeyState{Key: k, Last: last})
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].Key, entries[j].Key
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.GPU != b.GPU {
			return a.GPU < b.GPU
		}
		return a.Code < b.Code
	})
	return entries, c.raw, c.kept
}

// Restore rebuilds a coalescer from a checkpointed State, so a restarted
// streaming run continues deduplicating exactly where the previous process
// stopped.
func Restore(window time.Duration, entries []KeyState, raw, kept int) (*Coalescer, error) {
	c, err := newSized(window, len(entries))
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		c.lastKept[e.Key] = e.Last
	}
	c.raw, c.kept = raw, kept
	return c, nil
}

// Compare is the canonical Stage II event order: (time, node, gpu, code).
// It is the only ordering in the pipeline: Stage I hands events over in
// source order, and Stage II (Merge, Events, and AppendKeptThrough in the
// streaming engine's seal) offers them to the coalescer in Compare order,
// with input position breaking full ties.
func Compare(a, b xid.Event) int { return compare(&a, &b) }

// compare is Compare without copying the events, for the index sort.
func compare(a, b *xid.Event) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	if c := strings.Compare(a.Node, b.Node); c != 0 {
		return c
	}
	if c := cmp.Compare(a.GPU, b.GPU); c != 0 {
		return c
	}
	return cmp.Compare(a.Code, b.Code)
}

// AppendKeptThrough is Stage II's streaming step, the seal behind a
// watermark. It offers the events of pending at or before cutoff to the
// coalescer in Compare order, pending position breaking full ties, which is
// the order a stable sort of those events gives. It appends the kept ones
// to dst in that order and returns how many it kept. pending is never
// modified: the sort runs over an index of one 8-byte position per event,
// which the coalescer keeps for its next call, and only kept events are
// copied. Calls one after another coalesce as one pass over all their
// events when every event a call offers is later than every event the
// calls before it offered, which is the streaming watermark's guarantee.
func (c *Coalescer) AppendKeptThrough(dst *Blocks, pending Blocks, cutoff time.Time) int {
	through, ok := xid.Latest(cutoff)
	if !ok {
		return 0
	}
	kept := c.keep(c.order, pending, through)
	for _, p := range kept {
		dst.Append(*at(pending, p), nil)
	}
	c.order = kept[:0]
	return len(kept)
}

// keep is the step under AppendKeptThrough and Events: it offers the
// events of segs, read in order as one stream, that are at or before
// through (MaxTime takes them all) and returns the positions of the kept
// ones, in order's array. The index scratch is passed in, so a one-off
// Coalescer (Events) keeps none and stays off the heap.
func (c *Coalescer) keep(order []uint64, segs [][]xid.Event, through xid.Time) []uint64 {
	order = sortIndex(order, segs, through)
	kept := order[:0]
	for _, p := range order {
		if c.Add(*at(segs, p)) {
			kept = append(kept, p)
		}
	}
	return kept
}

// Order fills order with the positions of the events of segs, read in
// order as one stream, in Stage II order: Compare order, input position
// breaking full ties. A position is segment<<32 | offset, so its integer
// order is input order; no slice holds 2^32 events. The scratch is grown
// as needed and returned.
func Order(order []uint64, segs [][]xid.Event) []uint64 {
	return sortIndex(order, segs, xid.MaxTime)
}

// sortIndex is Order over the events at or before through.
func sortIndex(order []uint64, segs [][]xid.Event, through xid.Time) []uint64 {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	order = slices.Grow(order[:0], n)
	for s, seg := range segs {
		for i := range seg {
			if seg[i].Time <= through {
				order = append(order, uint64(s)<<32|uint64(i))
			}
		}
	}
	slices.SortFunc(order, func(a, b uint64) int {
		if d := compare(at(segs, a), at(segs, b)); d != 0 {
			return d
		}
		return cmp.Compare(a, b)
	})
	return order
}

// at is the event at position p of segs.
func at(segs [][]xid.Event, p uint64) *xid.Event { return &segs[p>>32][uint32(p)] }

// Events is Stage II over one batch: it coalesces events with a fresh
// Coalescer, the step of AppendKeptThrough without a cutoff, and returns
// the kept events in Compare order, in a slice of their own. The events
// are not modified.
func Events(events []xid.Event, window time.Duration) ([]xid.Event, error) {
	// The key map grows from empty: distinct keys are far fewer than
	// events (272 of 60,510 at scale 0.05), so sizing it by the event
	// count would reserve far more than it fills.
	c, err := New(window)
	if err != nil {
		return nil, err
	}
	segs := [][]xid.Event{events}
	kept := c.keep(nil, segs, xid.MaxTime)
	out := slices.Grow([]xid.Event(nil), len(kept))
	for _, p := range kept {
		out = append(out, *at(segs, p))
	}
	return out, nil
}

// EventsParallel is Events with a worker count, which is ignored: Stage II
// runs sequentially.
func EventsParallel(events []xid.Event, window time.Duration, workers int) ([]xid.Event, error) {
	return Events(events, window)
}
