package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"time"

	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// samplePayload builds a payload with the representative awkward cases:
// interned strings shared across events, same-timestamp neighbors,
// backwards time deltas (negative zigzag), and empty detail strings.
func samplePayload() *Payload {
	base := time.Date(2023, 6, 1, 12, 0, 0, 500, time.UTC)
	return &Payload{
		SourceDigest: sha256.Sum256([]byte("source")),
		SourcePath:   "logs/day1.log",
		Stats:        syslog.ExtractStats{Lines: 120, XIDLines: 5, Skipped: 110, Malformed: 5},
		Events: []xid.Event{
			{Time: xid.Time(base.UnixNano()), Node: "gpub001", GPU: 0, Code: xid.MMU, Detail: "fault @ 0x7f"},
			{Time: xid.Time(base.UnixNano()), Node: "gpub002", GPU: 3, Code: xid.NVLink, Detail: ""},
			{Time: xid.Time(base.Add(time.Nanosecond).UnixNano()), Node: "gpub001", GPU: 7, Code: xid.DBE, Detail: "row 9"},
			{Time: xid.Time(base.Add(-time.Hour).UnixNano()), Node: "gpub001", GPU: 0, Code: xid.MMU, Detail: "fault @ 0x7f"},
			{Time: 0, Node: "x", GPU: 0, Code: xid.Code(999), Detail: "fault @ 0x7f"},
		},
	}
}

// stageIIOrder is events stably sorted by coalesce.Compare, in a slice of
// their own: the order an entry stores them in.
func stageIIOrder(events []xid.Event) []xid.Event {
	sorted := slices.Clone(events)
	slices.SortStableFunc(sorted, coalesce.Compare)
	return sorted
}

// samePayload compares two payloads field by field.
func samePayload(t *testing.T, got, want *Payload) {
	t.Helper()
	if got.SourceDigest != want.SourceDigest {
		t.Fatalf("source digest: %x != %x", got.SourceDigest, want.SourceDigest)
	}
	if got.ConfigDigest != want.ConfigDigest {
		t.Fatalf("config digest: %x != %x", got.ConfigDigest, want.ConfigDigest)
	}
	if got.SourcePath != want.SourcePath {
		t.Fatalf("source path: %q != %q", got.SourcePath, want.SourcePath)
	}
	if got.Stats != want.Stats {
		t.Fatalf("stats: %+v != %+v", got.Stats, want.Stats)
	}
	if len(got.Events) != len(want.Events) {
		t.Fatalf("event count: %d != %d", len(got.Events), len(want.Events))
	}
	for i := range want.Events {
		g, w := got.Events[i], want.Events[i]
		if g.Time != w.Time || g.Node != w.Node || g.GPU != w.GPU ||
			g.Code != w.Code || g.Detail != w.Detail {
			t.Fatalf("event %d: %+v != %+v", i, g, w)
		}
	}
}

// The round trip returns the payload with its events in Stage II order,
// full ties in input order, and leaves the encoded payload as it was.
func TestEvshardRoundTrip(t *testing.T) {
	p := samplePayload()
	p.ConfigDigest = DefaultCacheKey().digest()
	p.Events = append(p.Events, p.Events[0]) // a full tie, told apart by nothing
	p.Events[len(p.Events)-1].Detail = "tie"
	orig := slices.Clone(p.Events)
	got, err := DecodeShard(EncodeShard(p))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.Events, orig) {
		t.Fatal("EncodeShard modified the payload's events")
	}
	want := *p
	want.Events = stageIIOrder(p.Events)
	samePayload(t, got, &want)
}

func TestEvshardRoundTripEmpty(t *testing.T) {
	p := &Payload{SourcePath: "", Stats: syslog.ExtractStats{}}
	got, err := DecodeShard(EncodeShard(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 0 || got.Stats != p.Stats {
		t.Fatalf("empty payload round-trip: %+v", got)
	}
}

func TestEvshardEncodeDeterministic(t *testing.T) {
	p := samplePayload()
	a, b := EncodeShard(p), EncodeShard(p)
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same payload differ")
	}
}

// wantFormatError asserts err is a *FormatError, the typed failure the
// cache layer keys invalidation on.
func wantFormatError(t *testing.T, err error, ctx string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: decode succeeded, want *FormatError", ctx)
	}
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("%s: error %v is not a *FormatError", ctx, err)
	}
	if fe.Error() == "" {
		t.Fatalf("%s: empty error string", ctx)
	}
}

func TestDecodeTruncatedAtEveryPrefix(t *testing.T) {
	data := EncodeShard(samplePayload())
	for n := 0; n < len(data); n++ {
		_, err := DecodeShard(data[:n])
		wantFormatError(t, err, "prefix")
	}
}

func TestDecodeBitFlipAtEveryByte(t *testing.T) {
	data := EncodeShard(samplePayload())
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		_, err := DecodeShard(mut)
		wantFormatError(t, err, "bit flip")
	}
}

// patchFormatVersion rewrites a shard image's version field in place and
// re-stamps the trailer checksum, imitating a binary from another release.
func patchFormatVersion(raw []byte, v uint32) {
	binary.LittleEndian.PutUint32(raw[len(evshardMagic):], v)
	sum := sha256.Sum256(raw[:len(raw)-digestLen])
	copy(raw[len(raw)-digestLen:], sum[:])
}

func TestDecodeVersionMismatch(t *testing.T) {
	data := EncodeShard(samplePayload())
	// Patch the version field and re-stamp the checksum so the version
	// check itself (not the checksum) must reject the image.
	patchFormatVersion(data, FormatVersion+1)
	_, err := DecodeShard(data)
	wantFormatError(t, err, "version bump")
	var fe *FormatError
	errors.As(err, &fe)
	if want := "format version"; !bytes.Contains([]byte(fe.Reason), []byte(want)) {
		t.Fatalf("reason %q does not mention %q", fe.Reason, want)
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	data := EncodeShard(samplePayload())
	// Insert junk between the columns and the trailer, re-stamping the
	// checksum so only the trailing-bytes check can reject it.
	body := append([]byte(nil), data[:len(data)-digestLen]...)
	body = append(body, 0x00, 0x01)
	sum := sha256.Sum256(body)
	_, err := DecodeShard(append(body, sum[:]...))
	wantFormatError(t, err, "trailing bytes")
}

func TestDecodeBadMagic(t *testing.T) {
	data := EncodeShard(samplePayload())
	data[0] = 'X'
	_, err := DecodeShard(data)
	wantFormatError(t, err, "bad magic")
}

func TestCacheKeyDigestDistinguishesConfigs(t *testing.T) {
	a := CacheKey{ParserVersion: 2, Strict: true}.digest()
	b := CacheKey{ParserVersion: 1, Strict: true}.digest()
	c := CacheKey{ParserVersion: 2, Strict: false}.digest()
	if a == b || a == c || b == c {
		t.Fatal("distinct cache keys share a digest")
	}
	if a != DefaultCacheKey().digest() {
		t.Fatal("DefaultCacheKey drifted from ParserVersion 2 strict")
	}
}

// handShard hand-encodes a checksummed .evshard image of the given node
// and detail tables and columns, each a list of raw varint values (the
// time column's are deltas), so a test can write what EncodeShard never
// does: values past 32 bits, events out of order.
func handShard(nodes, details []string, count int, cols [numCols][]int64) []byte {
	buf := append([]byte(nil), evshardMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, FormatVersion)
	buf = append(buf, make([]byte, 2*digestLen)...)
	buf = putString(buf, "src.log")
	for range 4 { // stats
		buf = putVarint(buf, 0)
	}
	buf = putUvarint(buf, uint64(count))
	for _, table := range [][]string{nodes, details} {
		buf = putUvarint(buf, uint64(len(table)))
		for _, s := range table {
			buf = putString(buf, s)
		}
	}
	var body [numCols][]byte
	for c, vals := range cols {
		for _, v := range vals {
			if c == colGPU || c == colCode {
				body[c] = putVarint(body[c], v)
			} else {
				body[c] = putUvarint(body[c], uint64(v))
			}
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(body[c])))
	}
	for _, b := range body {
		buf = append(buf, b...)
	}
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// oneEventShard hand-encodes a valid .evshard image of one event whose GPU
// and code columns hold the raw values gpu and code, which EncodeShard
// cannot produce past 32 bits.
func oneEventShard(gpu, code int64) []byte {
	return handShard([]string{"gpub001"}, []string{"detail"}, 1, [numCols][]int64{
		colTime: {int64(timeBits(1_685_620_800_000_000_000))}, colNode: {0},
		colGPU: {gpu}, colCode: {code}, colDetail: {0},
	})
}

// TestDecodeRejectsOutOfOrder: an entry whose checksum verifies but whose
// events are not in Stage II order is a *FormatError, so a cache hit never
// hands Stage II an unsorted run. The two events share a time and differ
// by node, stored gpub002 first.
func TestDecodeRejectsOutOfOrder(t *testing.T) {
	t0 := int64(timeBits(1_685_620_800_000_000_000))
	cols := func(first, second int64) [numCols][]int64 {
		return [numCols][]int64{
			colTime: {t0, 0}, colNode: {first, second},
			colGPU: {0, 0}, colCode: {31, 31}, colDetail: {0, 0},
		}
	}
	nodes := []string{"gpub001", "gpub002"}
	if _, err := DecodeShard(handShard(nodes, []string{""}, 2, cols(0, 1))); err != nil {
		t.Fatalf("the ordered image: %v", err)
	}
	_, err := DecodeShard(handShard(nodes, []string{""}, 2, cols(1, 0)))
	wantFormatError(t, err, "out of order")
}

// TestDecodeRejectsColumnsPast32Bits: a GPU or code varint that overflows
// the event record's int32 fields is a *FormatError, never a truncated
// value.
func TestDecodeRejectsColumnsPast32Bits(t *testing.T) {
	p, err := DecodeShard(oneEventShard(-7, 2147483647))
	if err != nil {
		t.Fatal(err)
	}
	want := xid.Event{Time: 1_685_620_800_000_000_000, Node: "gpub001", GPU: -7, Code: 2147483647, Detail: "detail"}
	if len(p.Events) != 1 || p.Events[0] != want {
		t.Fatalf("in-range columns decode to %+v, want [%+v]", p.Events, want)
	}
	for _, c := range []struct {
		name      string
		gpu, code int64
	}{
		{"gpu 2^31", 1 << 31, 31},
		{"gpu 2^32+3", 1<<32 + 3, 31},
		{"gpu -2^31-1", -1<<31 - 1, 31},
		{"code 2^31", 0, 1 << 31},
		{"code 2^32+31", 0, 1<<32 + 31},
		{"code -2^40", 0, -1 << 40},
	} {
		_, err := DecodeShard(oneEventShard(c.gpu, c.code))
		wantFormatError(t, err, c.name)
	}
}
