package coalesce

import (
	"time"

	"gpuresilience/internal/xid"
)

// A Cursor reads events one at a time. Next stores the next event in ev
// and reports false once none is left.
type Cursor interface {
	Next(ev *xid.Event) bool
}

// A Run is a part of Stage II's input that is already in Stage II order:
// Compare order, with full ties in input order. A cache hit is one, and
// Sorted makes one of events held in segments.
type Run struct {
	// Len is how many events the run holds.
	Len int
	// Cursor reads the run's events. Merge reads it once, to the end.
	Cursor Cursor
}

// Sorted is the events of segs, read in order as one stream, as a run: a
// cursor over their Order index. The segments are not modified, and must
// not change until the run is read.
func Sorted(segs [][]xid.Event) Run {
	order := Order(nil, segs)
	return Run{Len: len(order), Cursor: &sortedCursor{segs: segs, order: order}}
}

// sortedCursor reads segs at the positions of order, in turn.
type sortedCursor struct {
	segs  [][]xid.Event
	order []uint64
}

// Next implements Cursor.
func (c *sortedCursor) Next(ev *xid.Event) bool {
	if len(c.order) == 0 {
		return false
	}
	*ev, c.order = *at(c.segs, c.order[0]), c.order[1:]
	return true
}

// Merge is Stage II over runs, read in order as one stream. A heap merges
// the runs on (Compare, run index), so the events reach the coalescer in
// the order a stable sort of the runs' concatenation gives. Merge returns
// the kept events in Compare order, in Blocks of its own: each kept event
// is copied once, into its block.
func Merge(runs []Run, window time.Duration) (Blocks, error) {
	c, err := New(window)
	if err != nil {
		return nil, err
	}
	// Each run's cursor reads straight into the run's head.
	h := make(heads, 0, len(runs))
	for j, r := range runs {
		h = append(h, head{run: j})
		if !r.Cursor.Next(&h[len(h)-1].ev) {
			h = h[:len(h)-1]
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	var blocks Blocks
	for len(h) > 0 {
		if c.Add(h[0].ev) {
			blocks.Append(h[0].ev, nil)
		}
		if !runs[h[0].run].Cursor.Next(&h[0].ev) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		h.down(0)
	}
	return blocks, nil
}

// head is the next event of one of Merge's runs.
type head struct {
	ev  xid.Event
	run int
}

// heads is Merge's heap of run heads, least first.
type heads []head

// before reports whether a comes before b in the input's Stage II order.
// Two heads never come from the same run, so a full tie is decided by
// the runs' order.
func before(a, b *head) bool {
	if d := compare(&a.ev, &b.ev); d != 0 {
		return d < 0
	}
	return a.run < b.run
}

// down restores the heap order below i.
func (h heads) down(i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && before(&h[l], &h[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(h) && before(&h[r], &h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
