package ingest

import (
	"bytes"
	"errors"
	"testing"

	"gpuresilience/internal/logfuzz"
	"gpuresilience/internal/xid"
)

// fuzzSeedLogs builds the corpus inputs: a clean time-ordered log plus
// logfuzz-damaged variants of it, one per corruption op, so the fuzzer
// starts from realistic shapes instead of empty bytes.
func fuzzSeedLogs(f *testing.F) [][]byte {
	f.Helper()
	clean := orderedLog(40, 1)
	seeds := [][]byte{nil, clean}
	for _, op := range logfuzz.AllOps() {
		damaged, _, err := logfuzz.Corrupt(clean, logfuzz.Config{
			Seed: uint64(op) + 1, Rate: 0.2, Ops: []logfuzz.Op{op}, OversizeBytes: 8 << 10,
		})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, damaged)
	}
	return seeds
}

// FuzzEvshardRoundTrip: for any log bytes, the payload built by lenient
// Stage I survives EncodeShard/DecodeShard losslessly — events, stats,
// digests, and path all come back exactly — and a cache store's encoding
// from segments, here one per event with empty ones between, is byte-equal
// to EncodeShard over their concatenation.
func FuzzEvshardRoundTrip(f *testing.F) {
	for _, seed := range fuzzSeedLogs(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ext, err := ExtractReader(bytes.NewReader(data), Options{Workers: 1, Lenient: true})
		if err != nil {
			t.Skip() // budget-free lenient extraction only fails on reader errors
		}
		p := &Payload{
			SourceDigest: [digestLen]byte{1, 2, 3},
			ConfigDigest: DefaultCacheKey().digest(),
			SourcePath:   "fuzz.log",
			Stats:        ext.Stats,
			Events:       flat(ext),
		}
		img := EncodeShard(p)
		var segs [][]xid.Event
		for i := range p.Events {
			segs = append(segs, nil, p.Events[i:i+1])
		}
		if !bytes.Equal(encodeShard(p, segs), img) {
			t.Fatal("encoding from segments differs from EncodeShard")
		}
		got, err := DecodeShard(img)
		if err != nil {
			t.Fatalf("round trip decode: %v", err)
		}
		if got.SourceDigest != p.SourceDigest || got.ConfigDigest != p.ConfigDigest ||
			got.SourcePath != p.SourcePath || got.Stats != p.Stats {
			t.Fatalf("header fields mutated: %+v != %+v", got, p)
		}
		if len(got.Events) != len(p.Events) {
			t.Fatalf("%d events, want %d", len(got.Events), len(p.Events))
		}
		for i := range p.Events {
			g, w := got.Events[i], p.Events[i]
			if g.Time != w.Time || g.Node != w.Node || g.GPU != w.GPU ||
				g.Code != w.Code || g.Detail != w.Detail {
				t.Fatalf("event %d mutated: %+v != %+v", i, g, w)
			}
		}
	})
}

// FuzzEvshardDecode: DecodeShard never panics on arbitrary bytes; it either
// succeeds or returns a typed *FormatError. When it succeeds, a re-encoded
// re-decode is a fixed point (decode∘encode∘decode == decode).
func FuzzEvshardDecode(f *testing.F) {
	// Seed with valid images of real payloads, their logfuzz-mangled
	// variants, and assorted truncations/bit flips, so the fuzzer starts at
	// the format's decision boundaries.
	for _, log := range fuzzSeedLogs(f) {
		ext, err := ExtractReader(bytes.NewReader(log), Options{Workers: 1, Lenient: true})
		if err != nil {
			continue
		}
		img := EncodeShard(&Payload{SourcePath: "seed.log", Stats: ext.Stats, Events: flat(ext)})
		f.Add(img)
		f.Add(img[:len(img)/2])
		mangled, _, err := logfuzz.Corrupt(img, logfuzz.Config{Seed: 7, Rate: 0.3})
		if err == nil {
			f.Add(mangled)
		}
		if len(img) > 20 {
			flipped := append([]byte(nil), img...)
			flipped[20] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeShard(data)
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("decode error %v is not a *FormatError", err)
			}
			return
		}
		reimg := EncodeShard(p)
		p2, err := DecodeShard(reimg)
		if err != nil {
			t.Fatalf("re-encode of a decoded payload does not decode: %v", err)
		}
		if p2.SourcePath != p.SourcePath || p2.Stats != p.Stats || len(p2.Events) != len(p.Events) {
			t.Fatalf("decode/encode/decode not a fixed point: %+v != %+v", p2, p)
		}
		for i := range p.Events {
			g, w := p2.Events[i], p.Events[i]
			if g.Time != w.Time || g.Node != w.Node || g.GPU != w.GPU ||
				g.Code != w.Code || g.Detail != w.Detail {
				t.Fatalf("event %d not a fixed point: %+v != %+v", i, g, w)
			}
		}
	})
}
