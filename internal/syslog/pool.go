package syslog

import (
	"sync"

	"gpuresilience/internal/intern"
)

// internerPool recycles per-chunk interners across chunks and runs. Every
// interner goes back Reset, so a Get behaves exactly like intern.New() —
// which keeps the intern hit/miss counters deterministic at a fixed worker
// count: chunk boundaries depend only on the input bytes (fixed-size
// io.ReadFull reads), never on goroutine scheduling.
var internerPool = sync.Pool{New: func() any { return intern.New() }}

func getInterner() *intern.Interner { return internerPool.Get().(*intern.Interner) }

// releaseInterner harvests the interner's stats into alloc (nil-safe) and
// returns it, reset, to the pool. Single-goroutine callers only; the
// parallel workers instead carry per-chunk stats through the ordered
// fan-in and sum them there.
func releaseInterner(in *intern.Interner, alloc *intern.Stats) {
	if alloc != nil {
		alloc.Add(in.Stats())
	}
	in.Reset()
	internerPool.Put(in)
}

// chunkBufPool recycles the ~1 MiB buffers the parallel chunk readers hand
// to workers. A worker returns its buffer as soon as the chunk is parsed —
// safe because every string a parse produces is an interned copy, never a
// view into the buffer.
var chunkBufPool sync.Pool

// getChunkBuf returns a buffer with capacity at least n. Pointer-to-slice
// indirection keeps the Put side allocation-free. A new buffer has room
// for a read plus a carry of up to scanBufBytes, so a pooled one still
// fits when the next read's carry is longer than the last's.
func getChunkBuf(n int) *[]byte {
	if v := chunkBufPool.Get(); v != nil {
		bp := v.(*[]byte)
		if cap(*bp) >= n {
			return bp
		}
		// Too small for this carry-extended read; drop it for the GC.
	}
	b := make([]byte, n, max(n, defaultChunkBytes+scanBufBytes))
	return &b
}

// putChunkBuf recycles a chunk buffer. Undersized buffers would only miss
// on the next get, and pathologically carry-grown ones should not pin
// memory in the pool, so both are left to the GC.
func putChunkBuf(bp *[]byte) {
	if c := cap(*bp); c >= defaultChunkBytes && c <= 8*defaultChunkBytes {
		chunkBufPool.Put(bp)
	}
}
