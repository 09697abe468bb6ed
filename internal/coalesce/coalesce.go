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
	"sync"
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
	lastKept map[xid.Key]time.Time
	raw      int
	kept     int
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
		lastKept: make(map[xid.Key]time.Time, keys),
	}, nil
}

// Add offers one raw event and reports whether it was kept (i.e. it is the
// first occurrence of its key within the window).
func (c *Coalescer) Add(ev xid.Event) bool {
	c.raw++
	key := ev.Key()
	if last, seen := c.lastKept[key]; seen {
		if ev.Time.Before(last.Add(c.window)) && !ev.Time.Before(last.Add(-c.window)) {
			return false
		}
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
	n := 0
	for k, last := range c.lastKept {
		if !last.Add(c.window).After(cutoff) {
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
	Last time.Time `json:"last"`
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
// Input order breaks full ties, because every sort using it is stable.
// Sorting by it is the only ordering in the pipeline: Stage I hands events
// over in source order, and Events and the streaming engine's seal both
// sort with it (through AddBatch).
func Compare(a, b xid.Event) int {
	if c := a.Time.Compare(b.Time); c != 0 {
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

// AddBatch stably sorts events in place by Compare, offers them to the
// coalescer in that order, and compacts the kept events to the front of
// events, returning that prefix. Batches fed one after another coalesce as
// one batch when every event of a batch is later than every event of the
// batches before it, which is the streaming watermark's guarantee.
func (c *Coalescer) AddBatch(events []xid.Event) []xid.Event {
	slices.SortStableFunc(events, Compare)
	kept := events[:0]
	for _, ev := range events {
		if c.Add(ev) {
			kept = append(kept, ev)
		}
	}
	return kept
}

// scratchPool recycles Events' working copy, so the pipeline's repeated
// Stage II runs do not allocate a full copy of their input each time.
var scratchPool = sync.Pool{New: func() any { return new([]xid.Event) }}

// Events is Stage II over a batch the caller keeps: it stably sorts a copy
// of events by Compare, coalesces it, and returns the kept events in that
// order. events itself is not modified, and the result shares no memory
// with it. The copy lives in a pooled scratch slice.
func Events(events []xid.Event, window time.Duration) ([]xid.Event, error) {
	sp := scratchPool.Get().(*[]xid.Event)
	buf := append((*sp)[:0], events...)
	out, err := EventsInPlace(buf, window)
	// Drop the events' strings before pooling, so the pool never pins a
	// finished run's node and detail strings.
	clear(buf)
	*sp = buf[:0]
	scratchPool.Put(sp)
	return out, err
}

// EventsInPlace is Events over a batch the caller owns and gives up: it
// sorts and compacts events in place (AddBatch), leaving them in no useful
// order, and returns the kept events in an exact-size slice that shares no
// memory with them, so the input's array can be freed.
func EventsInPlace(events []xid.Event, window time.Duration) ([]xid.Event, error) {
	// The key map grows from empty: distinct keys are far fewer than
	// events (272 of 60,510 at scale 0.05), so sizing it by the event
	// count would reserve far more than it fills.
	c, err := New(window)
	if err != nil {
		return nil, err
	}
	kept := c.AddBatch(events)
	out := make([]xid.Event, len(kept))
	copy(out, kept)
	return out, nil
}

// EventsParallel is Events with a worker count, which is ignored: Stage II
// runs sequentially.
func EventsParallel(events []xid.Event, window time.Duration, workers int) ([]xid.Event, error) {
	return Events(events, window)
}
