package coalesce

import (
	"encoding/json"
	"slices"

	"gpuresilience/internal/xid"
)

// Blocks is a sequence of events held in blocks of at most keptBlock
// events, every block but the last full and none empty. A sequence whose
// final length is known only at its end fills one block after another
// instead of growing one slice to that length, which would allocate
// several times its size and copy what it holds at every regrowth.
// Merge's kept events, and the streaming engine's pending and sealed
// events, are held this way.
//
// Its JSON form is the flat array of its events, the form a []xid.Event
// has, and decoding one fills blocks again.
type Blocks [][]xid.Event

// keptBlock is how many events one block holds. The Go runtime puts an
// 8-byte header before an object over 512 bytes that holds pointers, so
// 341 events of 48 bytes fill the 16 KiB size class to within 8 bytes,
// where 256 would round up to 13,568 bytes, 10% of them unused.
const keptBlock = 341

// Append appends ev to the last block, or to a fresh one when the last is
// full: a block taken from spare, when spare is not nil and holds one, or
// else a new one.
func (b *Blocks) Append(ev xid.Event, spare *[][]xid.Event) {
	n := len(*b)
	if n == 0 || len((*b)[n-1]) == keptBlock {
		*b = append(*b, newBlock(spare))
		n++
	}
	(*b)[n-1] = append((*b)[n-1], ev)
}

// newBlock is an empty block of keptBlock events' capacity, the last of
// spare's when it holds one.
func newBlock(spare *[][]xid.Event) []xid.Event {
	if spare == nil || len(*spare) == 0 {
		return make([]xid.Event, 0, keptBlock)
	}
	s := *spare
	blk := s[len(s)-1]
	s[len(s)-1] = nil
	*spare = s[:len(s)-1]
	return blk
}

// DropThrough removes the events at or before through and moves the rest,
// in their order, into the leading blocks. The blocks left empty are
// cleared, so they hold no string of a removed event, and put on spare
// for Append to reuse. It returns how many events it removed.
func (b *Blocks) DropThrough(through xid.Time, spare *[][]xid.Event) int {
	bs := *b
	// The write position never passes the read position, so each event
	// moves at most once, toward the front, over events already read.
	w, j, dropped := 0, 0, 0
	for _, blk := range bs {
		for _, ev := range blk {
			if ev.Time <= through {
				dropped++
				continue
			}
			for j == len(bs[w]) {
				w, j = w+1, 0
			}
			bs[w][j] = ev
			j++
		}
	}
	if dropped == 0 {
		return 0
	}
	keep := 0
	if j > 0 {
		clear(bs[w][j:])
		bs[w] = bs[w][:j]
		keep = w + 1
	}
	for _, blk := range bs[keep:] {
		clear(blk)
		*spare = append(*spare, blk[:0])
	}
	clear(bs[keep:])
	*b = bs[:keep]
	return dropped
}

// From returns the events of b from position n on as blocks, each clipped
// to its length, so an Append to b never changes what they show.
func (b Blocks) From(n int) [][]xid.Event {
	for len(b) > 0 && n >= len(b[0]) {
		n -= len(b[0])
		b = b[1:]
	}
	if len(b) == 0 {
		return nil
	}
	out := make([][]xid.Event, len(b))
	for i, blk := range b {
		out[i] = slices.Clip(blk)
	}
	out[0] = out[0][n:]
	return out
}

// Len returns how many events b holds.
func (b Blocks) Len() int {
	n := 0
	for _, blk := range b {
		n += len(blk)
	}
	return n
}

// Clone returns b's events in blocks of their own.
func (b Blocks) Clone() Blocks {
	var c Blocks
	for _, blk := range b {
		for _, ev := range blk {
			c.Append(ev, nil)
		}
	}
	return c
}

// MarshalJSON writes the flat array of b's events.
func (b Blocks) MarshalJSON() ([]byte, error) {
	return json.Marshal(slices.Concat(b...))
}

// UnmarshalJSON reads a flat array of events into blocks.
func (b *Blocks) UnmarshalJSON(data []byte) error {
	var flat []xid.Event
	if err := json.Unmarshal(data, &flat); err != nil {
		return err
	}
	*b = nil
	for _, ev := range flat {
		b.Append(ev, nil)
	}
	return nil
}
