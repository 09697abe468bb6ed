package coalesce

import (
	"errors"
	"slices"
	"time"

	"gpuresilience/internal/xid"
)

// A Cursor reads events one at a time. Next stores the next event in ev
// and reports false once none is left.
type Cursor interface {
	Next(ev *xid.Event) bool
}

// A Run is a part of Stage II's input that is already in Stage II order:
// Compare order, with full ties in input order. A cache hit is one.
type Run struct {
	// At places the run in the input: after the first At segments, and
	// after every earlier run with the same At.
	At int
	// Len is how many events the run holds.
	Len int
	// Cursor reads the run's events. Merge reads it once, to the end.
	Cursor Cursor
}

var errRunPlace = errors.New("coalesce: run placed outside the segments or before an earlier run")

// Merge is Stage II over input held in two forms, read in order as one
// stream: segs, events in source order, and runs already in Stage II
// order, each placed among the segments by its At. It returns the kept
// events in Compare order, in a slice of their own, the same events
// Segments returns over the whole input with every run in its place.
// The segments go through Segments' index sort as one run, which a heap
// merges with the other runs on (Compare, input position), so the events
// reach the coalescer in the order a stable sort of the whole input gives.
// With no runs this is exactly Segments' path. The segments are not
// modified.
func Merge(segs [][]xid.Event, runs []Run, window time.Duration) ([]xid.Event, error) {
	if len(runs) == 0 {
		return Segments(segs, window)
	}
	c, err := New(window)
	if err != nil {
		return nil, err
	}
	for j, r := range runs {
		if r.At < 0 || r.At > len(segs) || (j > 0 && r.At < runs[j-1].At) {
			return nil, errRunPlace
		}
	}
	m := merger{segs: segs, runs: runs, order: sortIndex(nil, segs, xid.MaxTime), read: new(xid.Event)}
	m.heads = make([]head, 0, len(runs)+1)
	if m.advance(head{run: -1}) {
		m.heads = append(m.heads, m.top)
	}
	for j := range runs {
		if m.advance(head{run: j}) {
			m.heads = append(m.heads, m.top)
		}
	}
	for i := len(m.heads)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	// The kept count is known only at the end, and growing one slice to
	// it would allocate several times its size, so the kept events fill
	// fixed blocks that one exact-size copy joins.
	var blocks [][]xid.Event
	for len(m.heads) > 0 {
		if c.Add(m.heads[0].ev) {
			if len(blocks) == 0 || len(blocks[len(blocks)-1]) == keptBlock {
				blocks = append(blocks, make([]xid.Event, 0, keptBlock))
			}
			last := &blocks[len(blocks)-1]
			*last = append(*last, m.heads[0].ev)
		}
		if m.advance(m.heads[0]) {
			m.heads[0] = m.top
		} else {
			last := len(m.heads) - 1
			m.heads[0] = m.heads[last]
			m.heads = m.heads[:last]
		}
		m.down(0)
	}
	return slices.Concat(blocks...), nil
}

// keptBlock is how many kept events one of Merge's blocks holds.
const keptBlock = 256

// head is the next event of one of Merge's inputs: run's, or, when run is
// -1, the sorted segments', which came from segment seg.
type head struct {
	ev  xid.Event
	run int
	seg int
}

// merger is Merge's heap of input heads, least first.
type merger struct {
	segs  [][]xid.Event
	runs  []Run
	order []uint64 // the segments' positions in Stage II order
	next  int      // how many of order have been read
	heads []head
	top   head       // advance's result
	read  *xid.Event // what a run's cursor reads into; on the heap once, not m
}

// advance reads the next event of h's input into m.top and reports
// whether there was one.
func (m *merger) advance(h head) bool {
	m.top = head{run: h.run}
	if h.run >= 0 {
		if !m.runs[h.run].Cursor.Next(m.read) {
			return false
		}
		m.top.ev = *m.read
		return true
	}
	if m.next == len(m.order) {
		return false
	}
	p := m.order[m.next]
	m.next++
	m.top.ev, m.top.seg = *at(m.segs, p), int(p>>32)
	return true
}

// before reports whether a comes before b in the input's Stage II order.
// Two heads never come from the same input, so a full tie is decided by
// where their inputs sit: runs by their order, and a run before a
// segment when the run's At is at most the segment's index.
func (m *merger) before(a, b *head) bool {
	if d := compare(&a.ev, &b.ev); d != 0 {
		return d < 0
	}
	switch {
	case a.run >= 0 && b.run >= 0:
		return a.run < b.run
	case a.run >= 0:
		return m.runs[a.run].At <= b.seg
	default:
		return a.seg < m.runs[b.run].At
	}
}

// down restores the heap order below i.
func (m *merger) down(i int) {
	h := m.heads
	for {
		least := i
		if l := 2*i + 1; l < len(h) && m.before(&h[l], &h[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(h) && m.before(&h[r], &h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
