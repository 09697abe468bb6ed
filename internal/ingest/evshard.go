package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// FormatVersion is the .evshard container version. Bump it whenever the
// encoding changes shape; every cached shard written under a different
// version is invalidated on load.
const FormatVersion = 1

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
	// Events is the shard's parsed event stream in source line order.
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

// EncodeShard renders p as a self-verifying .evshard byte image:
//
//	magic[8] version[u32le] sourceDigest[32] configDigest[32]
//	sourcePath stats{lines,xid,skipped,malformed}
//	eventCount nodeTable detailTable
//	times(zigzag delta) nodeIdx gpus(zigzag) codes(zigzag) detailIdx
//	sha256(all preceding bytes)[32]
//
// Every multi-byte integer is a varint except the fixed-width header and
// trailer; event columns are column-major (all times, then all node
// indices, ...) so same-typed values compress and decode cache-friendly.
func EncodeShard(p *Payload) []byte {
	return encodeShard(p, [][]xid.Event{p.Events})
}

// encodeShard is EncodeShard with the events taken from segs, read in
// order as one stream, instead of p.Events: the bytes are those of
// EncodeShard over the segments' concatenation.
func encodeShard(p *Payload, segs [][]xid.Event) []byte {
	count := 0
	for _, s := range segs {
		count += len(s)
	}
	each := func(fn func(ev *xid.Event)) {
		for _, s := range segs {
			for i := range s {
				fn(&s[i])
			}
		}
	}
	// Size guess: header+trailer plus ~8 bytes per event across columns.
	buf := make([]byte, 0, 128+len(p.SourcePath)+8*count)
	buf = append(buf, evshardMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, FormatVersion)
	buf = append(buf, p.SourceDigest[:]...)
	buf = append(buf, p.ConfigDigest[:]...)
	buf = putString(buf, p.SourcePath)
	buf = putVarint(buf, int64(p.Stats.Lines))
	buf = putVarint(buf, int64(p.Stats.XIDLines))
	buf = putVarint(buf, int64(p.Stats.Skipped))
	buf = putVarint(buf, int64(p.Stats.Malformed))
	buf = putUvarint(buf, uint64(count))

	var nodes, details stringTable
	each(func(ev *xid.Event) {
		nodes.intern(ev.Node)
		details.intern(ev.Detail)
	})
	for _, t := range [2]stringTable{nodes, details} {
		buf = putUvarint(buf, uint64(len(t.vals)))
		for _, s := range t.vals {
			buf = putString(buf, s)
		}
	}
	// The first time is a delta from zero, that is, the time itself.
	prev := int64(0)
	each(func(ev *xid.Event) {
		ns := int64(ev.Time)
		buf = putVarint(buf, ns-prev)
		prev = ns
	})
	each(func(ev *xid.Event) { buf = putUvarint(buf, nodes.intern(ev.Node)) })
	each(func(ev *xid.Event) { buf = putVarint(buf, int64(ev.GPU)) })
	each(func(ev *xid.Event) { buf = putVarint(buf, int64(ev.Code)) })
	each(func(ev *xid.Event) { buf = putUvarint(buf, details.intern(ev.Detail)) })
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// decoder is a bounds-checked cursor over the varint section of a shard.
type decoder struct {
	b []byte
}

// uvarint reads one unsigned varint, failing on truncation or overflow.
func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, formatErrf("truncated or overlong %s varint", what)
	}
	d.b = d.b[n:]
	return v, nil
}

// varint reads one zigzag-encoded signed varint.
func (d *decoder) varint(what string) (int64, error) {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		return 0, formatErrf("truncated or overlong %s varint", what)
	}
	d.b = d.b[n:]
	return v, nil
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

// int32Field reads a signed varint that must fit in an int32, the width of
// the event record's GPU and code.
func (d *decoder) int32Field(what string) (int32, error) {
	v, err := d.varint(what)
	if err != nil {
		return 0, err
	}
	if int64(int32(v)) != v {
		return 0, formatErrf("%s %d overflows int32", what, v)
	}
	return int32(v), nil
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

// DecodeShard parses a .evshard byte image, verifying the magic, format
// version, and whole-payload checksum before touching the columns. Any
// truncation, bit flip, or malformed field returns a *FormatError; decode
// never panics on arbitrary input (FuzzEvshardDecode holds it to that).
func DecodeShard(data []byte) (*Payload, error) {
	const headerLen = len(evshardMagic) + 4 + 2*digestLen
	if len(data) < headerLen+digestLen {
		return nil, formatErrf("truncated: %d bytes is shorter than header+trailer", len(data))
	}
	if !bytes.Equal(data[:len(evshardMagic)], evshardMagic[:]) {
		return nil, formatErrf("bad magic %q", data[:len(evshardMagic)])
	}
	if v := binary.LittleEndian.Uint32(data[len(evshardMagic):]); v != FormatVersion {
		return nil, formatErrf("format version %d, want %d", v, FormatVersion)
	}
	body, trailer := data[:len(data)-digestLen], data[len(data)-digestLen:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], trailer) {
		return nil, formatErrf("checksum mismatch")
	}

	p := &Payload{}
	off := len(evshardMagic) + 4
	copy(p.SourceDigest[:], data[off:])
	copy(p.ConfigDigest[:], data[off+digestLen:])
	d := &decoder{b: body[headerLen:]}
	var err error
	if p.SourcePath, err = d.str("source path"); err != nil {
		return nil, err
	}
	if p.Stats.Lines, err = d.intField("stats.lines"); err != nil {
		return nil, err
	}
	if p.Stats.XIDLines, err = d.intField("stats.xidlines"); err != nil {
		return nil, err
	}
	if p.Stats.Skipped, err = d.intField("stats.skipped"); err != nil {
		return nil, err
	}
	if p.Stats.Malformed, err = d.intField("stats.malformed"); err != nil {
		return nil, err
	}
	count, err := d.uvarint("event count")
	if err != nil {
		return nil, err
	}
	// Every event costs at least 5 column bytes (one varint per column),
	// so a count beyond remaining/5 is corrupt — and the bound keeps a
	// forged count from preallocating unbounded memory.
	if count > uint64(len(d.b)) {
		return nil, formatErrf("event count %d exceeds remaining %d bytes", count, len(d.b))
	}
	nodes, err := d.table("node")
	if err != nil {
		return nil, err
	}
	details, err := d.table("detail")
	if err != nil {
		return nil, err
	}
	events := make([]xid.Event, count)
	prev := int64(0)
	for i := range events {
		dt, err := d.varint("time")
		if err != nil {
			return nil, err
		}
		prev += dt
		events[i].Time = xid.Time(prev)
	}
	for i := range events {
		idx, err := d.uvarint("node index")
		if err != nil {
			return nil, err
		}
		if idx >= uint64(len(nodes)) {
			return nil, formatErrf("node index %d out of range (table has %d)", idx, len(nodes))
		}
		events[i].Node = nodes[idx]
	}
	for i := range events {
		if events[i].GPU, err = d.int32Field("gpu"); err != nil {
			return nil, err
		}
	}
	for i := range events {
		c, err := d.int32Field("code")
		if err != nil {
			return nil, err
		}
		events[i].Code = xid.Code(c)
	}
	for i := range events {
		idx, err := d.uvarint("detail index")
		if err != nil {
			return nil, err
		}
		if idx >= uint64(len(details)) {
			return nil, formatErrf("detail index %d out of range (table has %d)", idx, len(details))
		}
		events[i].Detail = details[idx]
	}
	if len(d.b) != 0 {
		return nil, formatErrf("%d trailing bytes after columns", len(d.b))
	}
	p.Events = events
	return p, nil
}
