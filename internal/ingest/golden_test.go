package ingest

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// goldenShard is the committed format-2 image of goldenPayload, written
// by the format's first encoder.
var goldenShard = filepath.Join("testdata", "format2", "golden.evshard")

// goldenPayload is a fixed shard that exercises every part of the
// encoding: four nodes and several details shared across events, events
// at one instant told apart by node, GPU or code, a full tie told apart
// only by source order, and source lines out of time order, one of them
// an hour back.
func goldenPayload() *Payload {
	base := time.Date(2023, 6, 1, 12, 0, 0, 250, time.UTC)
	at := func(d time.Duration) xid.Time { return xid.Time(base.Add(d).UnixNano()) }
	return &Payload{
		SourceDigest: sha256.Sum256([]byte("golden source")),
		ConfigDigest: DefaultCacheKey().digest(),
		SourcePath:   "logs/golden.log",
		Stats:        syslog.ExtractStats{Lines: 40, XIDLines: 10, Skipped: 29, Malformed: 1},
		Events: []xid.Event{
			{Time: at(2 * time.Second), Node: "gpub003", GPU: 2, Code: xid.MMU, Detail: "fault @ 0x1"},
			{Time: at(0), Node: "gpub001", GPU: 0, Code: xid.DBE, Detail: "row 4"},
			{Time: at(0), Node: "gpub002", GPU: 1, Code: xid.NVLink, Detail: ""},
			{Time: at(0), Node: "gpub001", GPU: 0, Code: xid.DBE, Detail: "row 5"},
			{Time: at(-time.Hour), Node: "gpub002", GPU: 7, Code: xid.GSPRPCTimeout, Detail: "timeout"},
			{Time: at(2 * time.Second), Node: "gpub001", GPU: 3, Code: xid.MMU, Detail: "fault @ 0x1"},
			{Time: at(time.Nanosecond), Node: "gpub004", GPU: 5, Code: xid.UncontainedMem, Detail: "row 4"},
			{Time: at(0), Node: "gpub001", GPU: 0, Code: xid.MMU, Detail: "fault @ 0x1"},
			{Time: at(0), Node: "gpub001", GPU: 2, Code: xid.DBE, Detail: "row 4"},
			{Time: at(90 * time.Minute), Node: "gpub003", GPU: 2, Code: xid.MMU, Detail: ""},
		},
	}
}

// TestGoldenShardBytes pins the .evshard encoding: EncodeShard, and the
// parse path's encoder over the events in three segments after it wrote
// another image, reproduce the committed image byte for byte, each in a
// slice of exactly its size; DecodeShard returns the payload from it, its
// events in Stage II order, and so does a cursor over the entry the
// encoder returned.
func TestGoldenShardBytes(t *testing.T) {
	want, err := os.ReadFile(goldenShard)
	if err != nil {
		t.Fatal(err)
	}
	p := goldenPayload()
	enc := new(encoder)
	other := samplePayload()
	enc.encode(other, [][]xid.Event{other.Events})
	fromSegs, e := enc.encode(p, [][]xid.Event{p.Events[:3], nil, p.Events[3:]})
	for name, img := range map[string][]byte{"EncodeShard": EncodeShard(p), "encoder": fromSegs} {
		if !bytes.Equal(img, want) {
			t.Fatalf("%s: %d bytes differ from the %d-byte golden", name, len(img), len(want))
		}
		if len(img) != cap(img) {
			t.Fatalf("%s: image of %d bytes in a %d-byte allocation", name, len(img), cap(img))
		}
	}
	got, err := DecodeShard(want)
	if err != nil {
		t.Fatal(err)
	}
	p.Events = stageIIOrder(p.Events)
	samePayload(t, got, p)

	fromEntry := e.head
	c := e.cursor()
	var ev xid.Event
	for c.Next(&ev) {
		fromEntry.Events = append(fromEntry.Events, ev)
	}
	samePayload(t, &fromEntry, p)
}
