package slurmsim

import (
	"bytes"
	"hash/maphash"
	"slices"
)

// placeTable interns placements: it hands out one shared *Placement per
// distinct String encoding, so every job that ran on the same GPUs points at
// one read-only value. The scheduler and LoadDB each keep one.
//
// Entries are keyed by a maphash of their encoding, and a hit is checked
// against the stored entry, never trusted on the hash alone. A placement
// whose hash slot another already holds (a 64-bit collision) is not shared,
// only carved anew each time. Entries, their node lists and their GPU
// indexes are carved from arenas, so a new distinct placement allocates
// nothing of its own.
type placeTable struct {
	seed    maphash.Seed
	byHash  map[uint64]*Placement
	entries []Placement // arenas the interned values are carved from
	nodes   []NodeGPUs
	ints    []int
	key     []byte // intern's encoding of its argument
	check   []byte // lookup's encoding of the entry it checks
}

func newPlaceTable() *placeTable {
	return &placeTable{seed: maphash.MakeSeed(), byHash: make(map[uint64]*Placement)}
}

// lookup returns the interned placement whose String encoding is text, or
// nil.
func (t *placeTable) lookup(text []byte) *Placement {
	p := t.byHash[maphash.Bytes(t.seed, text)]
	if p != nil {
		t.check = p.appendTo(t.check[:0])
		if !bytes.Equal(t.check, text) {
			return nil
		}
	}
	return p
}

// intern returns the shared placement equal to p, which must be in the form
// ParsePlacement returns: name-ordered, one entry per node. A hit is checked
// entry by entry. p is copied, not kept, so callers may build it in scratch.
func (t *placeTable) intern(p Placement) *Placement {
	t.key = p.appendTo(t.key[:0])
	h := maphash.Bytes(t.seed, t.key)
	held := t.byHash[h]
	if held != nil && slices.EqualFunc(*held, p, equalNodeGPUs) {
		return held
	}
	q := &carve(&t.entries, 1, 1024)[0]
	*q = carve(&t.nodes, len(p), 1024)
	for i, e := range p {
		idxs := carve(&t.ints, len(e.GPUs), 4096)
		copy(idxs, e.GPUs)
		(*q)[i] = NodeGPUs{Node: e.Node, GPUs: idxs}
	}
	if held == nil {
		t.byHash[h] = q
	}
	return q
}

func equalNodeGPUs(a, b NodeGPUs) bool { return a.Node == b.Node && slices.Equal(a.GPUs, b.GPUs) }
