package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// FormatVersion is the .evshard container version. Bump it whenever the
// encoding changes shape; every cached shard written under a different
// version is invalidated on load. Version 2 stores the events in Stage II
// order; version 1 stored them in source-line order.
const FormatVersion = 2

// ParserVersion names the Stage I parser generation a cached shard was
// produced by. Bump it whenever parse semantics change (what counts as an
// Xid record, how fields are extracted), so stale caches can never serve
// events a fresh parse would not produce.
const ParserVersion = 2

// evshardMagic opens every cache file. The trailing byte is \n so that a
// truncation-by-text-tool (CRLF rewrite, head -c) breaks the magic too.
var evshardMagic = [8]byte{'E', 'V', 'S', 'H', 'A', 'R', 'D', '\n'}

// digestLen is the size of the SHA-256 digests embedded in the header and
// of the whole-payload checksum trailer.
const digestLen = sha256.Size

// FormatError is the typed decode failure for corrupt, truncated, or
// incompatible .evshard data. The cache layer treats any FormatError as an
// invalidation — re-parse, overwrite — never as a fatal run error.
type FormatError struct {
	// Reason says what check failed, e.g. "truncated header" or
	// "checksum mismatch".
	Reason string
}

// Error implements error.
func (e *FormatError) Error() string { return "evshard: " + e.Reason }

// formatErrf builds a FormatError.
func formatErrf(format string, args ...any) error {
	return &FormatError{Reason: fmt.Sprintf(format, args...)}
}

// Payload is one shard's cached Stage I output: the parsed events in line
// order plus the scan statistics, bound to the exact source bytes and
// parser configuration that produced them.
type Payload struct {
	// SourceDigest is the SHA-256 of the raw log file's content.
	SourceDigest [digestLen]byte
	// ConfigDigest identifies the parser configuration (see Cache).
	ConfigDigest [digestLen]byte
	// SourcePath is the log file the shard was parsed from, recorded for
	// debuggability only; it is not part of the validity check.
	SourcePath string
	// Stats is the shard's Stage I scan statistics.
	Stats syslog.ExtractStats
	// Events is the shard's parsed event stream. EncodeShard takes it in
	// source-line order (any order encodes to the same entry) and stores
	// it in Stage II order, which is the order DecodeShard returns.
	Events []xid.Event
}

// stringTable interns the distinct strings of one column in first-seen
// order, so the column encodes as small indices into a shared table.
type stringTable struct {
	idx  map[string]uint64
	vals []string
}

// intern returns the table index for s, adding it on first sight.
func (t *stringTable) intern(s string) uint64 {
	if i, ok := t.idx[s]; ok {
		return i
	}
	if t.idx == nil {
		t.idx = make(map[string]uint64)
	}
	i := uint64(len(t.vals))
	t.idx[s] = i
	t.vals = append(t.vals, s)
	return i
}

// reset empties the table for the next image, keeping its storage.
func (t *stringTable) reset() {
	clear(t.idx)
	t.vals = t.vals[:0]
}

// putUvarint appends v to b as an unsigned varint.
func putUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// putVarint appends v to b as a zigzag-encoded signed varint.
func putVarint(b []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// putString appends a length-prefixed string.
func putString(b []byte, s string) []byte {
	b = putUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// The event columns, in the order an entry stores them.
const (
	colTime = iota
	colNode
	colGPU
	colCode
	colDetail
	numCols
)

// timeBits maps an event time to an unsigned integer in the same order
// (the sign bit flipped), so that non-decreasing times have non-negative
// deltas, the first one taken from zero.
func timeBits(t xid.Time) uint64 { return uint64(t) ^ 1<<63 }

// EncodeShard renders p as a self-verifying .evshard byte image:
//
//	magic[8] version[u32le] sourceDigest[32] configDigest[32]
//	sourcePath stats{lines,xid,skipped,malformed}
//	eventCount nodeTable detailTable columnLengths[5 x u64le]
//	times(unsigned delta) nodeIdx gpus(zigzag) codes(zigzag) detailIdx
//	sha256(all preceding bytes)[32]
//
// The events are stored in Stage II order (coalesce.Compare, full ties in
// p.Events' order), so the time column holds non-negative deltas of
// timeBits and a reader can hand a shard to Stage II as a sorted run.
// Every multi-byte integer is a varint except the fixed-width header,
// column lengths and trailer; event columns are column-major (all times,
// then all node indices, ...) so same-typed values compress, and the
// lengths let a reader walk all five in step, one event at a time. The
// image is returned in a slice of exactly its size.
func EncodeShard(p *Payload) []byte {
	img, _ := new(encoder).encode(p, [][]xid.Event{p.Events})
	return img
}

// encoder is the .evshard encoder's storage, kept from one image to the
// next: the Stage II sort index, each event's two string-table indexes
// in that order, and the two string tables.
type encoder struct {
	order          []uint64
	refs           []tableRefs
	nodes, details stringTable
}

// tableRefs is one event's node and detail table indexes; no shard holds
// 2^32 events.
type tableRefs struct{ node, detail uint32 }

// uvarintLen is how many bytes putUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// varintLen is how many bytes putVarint writes for v.
func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// tableLen is how many bytes a string table takes in an image.
func tableLen(vals []string) int {
	n := uvarintLen(uint64(len(vals)))
	for _, s := range vals {
		n += uvarintLen(uint64(len(s))) + len(s)
	}
	return n
}

// encode is EncodeShard with the events taken from segs, read in order as
// one stream, instead of p.Events: the bytes are those of EncodeShard
// over the segments' concatenation. One pass over the sorted events
// interns their strings and sizes every column, so the image is
// allocated once, at its exact size. encode also returns the image as a
// checked entry built from the encoder's own tables and column offsets,
// so a cursor can read the image back without decoding or checksumming
// it. The segments are not read again once encode returns.
func (enc *encoder) encode(p *Payload, segs [][]xid.Event) ([]byte, *entry) {
	enc.order = coalesce.Order(enc.order, segs)
	at := func(q uint64) *xid.Event { return &segs[q>>32][uint32(q)] }
	nodes, details := &enc.nodes, &enc.details
	nodes.reset()
	details.reset()
	enc.refs = slices.Grow(enc.refs[:0], len(enc.order))
	var colLen [numCols]int
	prev := uint64(0)
	for _, q := range enc.order {
		ev := at(q)
		r := tableRefs{uint32(nodes.intern(ev.Node)), uint32(details.intern(ev.Detail))}
		enc.refs = append(enc.refs, r)
		t := timeBits(ev.Time)
		colLen[colTime] += uvarintLen(t - prev)
		prev = t
		colLen[colNode] += uvarintLen(uint64(r.node))
		colLen[colGPU] += varintLen(int64(ev.GPU))
		colLen[colCode] += varintLen(int64(ev.Code))
		colLen[colDetail] += uvarintLen(uint64(r.detail))
	}
	size := len(evshardMagic) + 4 + 2*digestLen +
		uvarintLen(uint64(len(p.SourcePath))) + len(p.SourcePath) +
		varintLen(int64(p.Stats.Lines)) + varintLen(int64(p.Stats.XIDLines)) +
		varintLen(int64(p.Stats.Skipped)) + varintLen(int64(p.Stats.Malformed)) +
		uvarintLen(uint64(len(enc.order))) + tableLen(nodes.vals) + tableLen(details.vals) +
		8*numCols + digestLen
	for _, n := range colLen {
		size += n
	}

	buf := make([]byte, 0, size)
	buf = append(buf, evshardMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, FormatVersion)
	buf = append(buf, p.SourceDigest[:]...)
	buf = append(buf, p.ConfigDigest[:]...)
	buf = putString(buf, p.SourcePath)
	buf = putVarint(buf, int64(p.Stats.Lines))
	buf = putVarint(buf, int64(p.Stats.XIDLines))
	buf = putVarint(buf, int64(p.Stats.Skipped))
	buf = putVarint(buf, int64(p.Stats.Malformed))
	buf = putUvarint(buf, uint64(len(enc.order)))
	for _, t := range [2]*stringTable{nodes, details} {
		buf = putUvarint(buf, uint64(len(t.vals)))
		for _, s := range t.vals {
			buf = putString(buf, s)
		}
	}
	for _, n := range colLen {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	}
	e := &entry{head: *p, count: len(enc.order), nodes: slices.Clone(nodes.vals), details: slices.Clone(details.vals)}
	e.head.Events = nil
	for col := range numCols {
		start := len(buf)
		prev := uint64(0)
		for k, q := range enc.order {
			switch col {
			case colTime:
				t := timeBits(at(q).Time)
				buf = putUvarint(buf, t-prev)
				prev = t
			case colNode:
				buf = putUvarint(buf, uint64(enc.refs[k].node))
			case colGPU:
				buf = putVarint(buf, int64(at(q).GPU))
			case colCode:
				buf = putVarint(buf, int64(at(q).Code))
			case colDetail:
				buf = putUvarint(buf, uint64(enc.refs[k].detail))
			}
		}
		e.cols[col] = buf[start:len(buf):len(buf)]
	}
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...), e
}

// decoder is a bounds-checked cursor over the varint section of a shard.
type decoder struct {
	b []byte
}

// uvarint reads one unsigned varint, failing on truncation or overflow.
func (d *decoder) uvarint(what string) (uint64, error) {
	v, ok := d.next()
	if !ok {
		return 0, formatErrf("truncated or overlong %s varint", what)
	}
	return v, nil
}

// varint reads one zigzag-encoded signed varint.
func (d *decoder) varint(what string) (int64, error) {
	u, err := d.uvarint(what)
	return unzigzag(u), err
}

// next reads one unsigned varint, reporting false on truncation or
// overflow.
func (d *decoder) next() (uint64, bool) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, false
	}
	d.b = d.b[n:]
	return v, true
}

// unzigzag is the signed value of a zigzag-encoded varint, as
// binary.Varint decodes it.
func unzigzag(u uint64) int64 {
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

// intField reads a signed varint that must fit in an int.
func (d *decoder) intField(what string) (int, error) {
	v, err := d.varint(what)
	if err != nil {
		return 0, err
	}
	if int64(int(v)) != v {
		return 0, formatErrf("%s %d overflows int", what, v)
	}
	return int(v), nil
}

// str reads one length-prefixed string.
func (d *decoder) str(what string) (string, error) {
	n, err := d.uvarint(what + " length")
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.b)) {
		return "", formatErrf("%s length %d exceeds remaining %d bytes", what, n, len(d.b))
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s, nil
}

// table reads one interned string table.
func (d *decoder) table(what string) ([]string, error) {
	n, err := d.uvarint(what + " table size")
	if err != nil {
		return nil, err
	}
	// Each entry costs at least one length byte, so n can never exceed
	// the remaining payload; the check caps hostile preallocations.
	if n > uint64(len(d.b)) {
		return nil, formatErrf("%s table size %d exceeds remaining %d bytes", what, n, len(d.b))
	}
	vals := make([]string, n)
	for i := range vals {
		if vals[i], err = d.str(what); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// entry is a checked .evshard image: its header fields (Events unset), its
// string tables and its event columns, read one event at a time through
// a cursor.
type entry struct {
	head           Payload
	count          int
	nodes, details []string
	cols           [numCols][]byte
}

// cursor reads an entry's events in stored order, one at a time, walking
// its five columns in step.
type cursor struct {
	cols           [numCols]decoder
	nodes, details []string
	time           uint64 // timeBits of the last event read
	left           int
}

// cursor returns a cursor at the entry's first event.
func (e *entry) cursor() *cursor {
	c := &cursor{nodes: e.nodes, details: e.details, left: e.count}
	for i, col := range e.cols {
		c.cols[i].b = col
	}
	return c
}

// read decodes the next event into ev, checking every column's bounds.
// The caller counts the events.
func (c *cursor) read(ev *xid.Event) error {
	var raw [numCols]uint64
	for i := range raw {
		d := &c.cols[i]
		// Most values fit in one byte, read here without a call.
		if len(d.b) > 0 && d.b[0] < 0x80 {
			raw[i], d.b = uint64(d.b[0]), d.b[1:]
			continue
		}
		v, ok := d.next()
		if !ok {
			return formatErrf("truncated or overlong varint in column %d", i)
		}
		raw[i] = v
	}
	gpu, code := unzigzag(raw[colGPU]), unzigzag(raw[colCode])
	switch {
	case raw[colTime] > math.MaxUint64-c.time:
		return formatErrf("time delta %d overflows the time range", raw[colTime])
	case raw[colNode] >= uint64(len(c.nodes)):
		return formatErrf("node index %d out of range (table has %d)", raw[colNode], len(c.nodes))
	case raw[colDetail] >= uint64(len(c.details)):
		return formatErrf("detail index %d out of range (table has %d)", raw[colDetail], len(c.details))
	case int64(int32(gpu)) != gpu:
		return formatErrf("gpu %d overflows int32", gpu)
	case int64(int32(code)) != code:
		return formatErrf("code %d overflows int32", code)
	}
	c.time += raw[colTime]
	*ev = xid.Event{
		Time:   xid.Time(c.time ^ 1<<63),
		Node:   c.nodes[raw[colNode]],
		GPU:    int32(gpu),
		Code:   xid.Code(code),
		Detail: c.details[raw[colDetail]],
	}
	return nil
}

// Next implements coalesce.Cursor. openShard has read every event of the
// entry once with the same checks, so read cannot fail here.
func (c *cursor) Next(ev *xid.Event) bool {
	if c.left == 0 {
		return false
	}
	c.left--
	return c.read(ev) == nil
}

// DecodeShard parses a .evshard byte image, verifying the magic, format
// version, and whole-payload checksum before touching the columns, and
// returns its events in the stored Stage II order. Any truncation, bit
// flip, malformed field or event out of Stage II order returns a
// *FormatError; decode never panics on arbitrary input (FuzzEvshardDecode
// holds it to that).
func DecodeShard(data []byte) (*Payload, error) {
	e, events, err := openShard(data, true)
	if err != nil {
		return nil, err
	}
	p := e.head
	p.Events = events
	return &p, nil
}

// openShard checks a .evshard image in full, which is what a cache hit
// needs before Stage II streams it: the magic, the format version, the
// checksum, the header, the tables, every column's bounds, and that the
// events are in Stage II order. It returns the image as an entry, and
// when decode is set also its events, read in the same pass.
func openShard(data []byte, decode bool) (*entry, []xid.Event, error) {
	const headerLen = len(evshardMagic) + 4 + 2*digestLen
	if len(data) < headerLen+digestLen {
		return nil, nil, formatErrf("truncated: %d bytes is shorter than header+trailer", len(data))
	}
	if !bytes.Equal(data[:len(evshardMagic)], evshardMagic[:]) {
		return nil, nil, formatErrf("bad magic %q", data[:len(evshardMagic)])
	}
	if v := binary.LittleEndian.Uint32(data[len(evshardMagic):]); v != FormatVersion {
		return nil, nil, formatErrf("format version %d, want %d", v, FormatVersion)
	}
	body, trailer := data[:len(data)-digestLen], data[len(data)-digestLen:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], trailer) {
		return nil, nil, formatErrf("checksum mismatch")
	}

	e := &entry{}
	p := &e.head
	off := len(evshardMagic) + 4
	copy(p.SourceDigest[:], data[off:])
	copy(p.ConfigDigest[:], data[off+digestLen:])
	d := &decoder{b: body[headerLen:]}
	var err error
	if p.SourcePath, err = d.str("source path"); err != nil {
		return nil, nil, err
	}
	if p.Stats.Lines, err = d.intField("stats.lines"); err != nil {
		return nil, nil, err
	}
	if p.Stats.XIDLines, err = d.intField("stats.xidlines"); err != nil {
		return nil, nil, err
	}
	if p.Stats.Skipped, err = d.intField("stats.skipped"); err != nil {
		return nil, nil, err
	}
	if p.Stats.Malformed, err = d.intField("stats.malformed"); err != nil {
		return nil, nil, err
	}
	count, err := d.uvarint("event count")
	if err != nil {
		return nil, nil, err
	}
	// Every event costs at least 5 column bytes (one varint per column),
	// so a count beyond the remaining bytes is corrupt, and the bound
	// keeps a forged count from preallocating unbounded memory.
	if count > uint64(len(d.b)) {
		return nil, nil, formatErrf("event count %d exceeds remaining %d bytes", count, len(d.b))
	}
	e.count = int(count)
	if e.nodes, err = d.table("node"); err != nil {
		return nil, nil, err
	}
	if e.details, err = d.table("detail"); err != nil {
		return nil, nil, err
	}
	if len(d.b) < 8*numCols {
		return nil, nil, formatErrf("truncated column lengths")
	}
	cols := d.b[8*numCols:]
	for i := range e.cols {
		n := binary.LittleEndian.Uint64(d.b[8*i:])
		if n > uint64(len(cols)) {
			return nil, nil, formatErrf("column %d length %d exceeds remaining %d bytes", i, n, len(cols))
		}
		e.cols[i], cols = cols[:n], cols[n:]
	}
	if len(cols) != 0 {
		return nil, nil, formatErrf("%d trailing bytes after columns", len(cols))
	}

	var events []xid.Event
	if decode {
		events = make([]xid.Event, e.count)
	}
	c := e.cursor()
	var prev, ev xid.Event
	for i := range e.count {
		if err := c.read(&ev); err != nil {
			return nil, nil, err
		}
		if i > 0 && coalesce.Compare(prev, ev) > 0 {
			return nil, nil, formatErrf("event %d precedes the one before it", i)
		}
		if decode {
			events[i] = ev
		}
		prev = ev
	}
	for i, col := range c.cols {
		if len(col.b) != 0 {
			return nil, nil, formatErrf("%d trailing bytes in column %d", len(col.b), i)
		}
	}
	return e, events, nil
}
