package stream_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"gpuresilience/internal/stream"
)

// TestCheckpointResumeWithRedelivery is the crash-recovery guarantee:
// checkpoint mid-stream, resume in a fresh engine, redeliver an
// overlapping tail of the input (at-least-once delivery), and the final
// tables are byte-identical to an uninterrupted run — with the overlap
// absorbed as duplicates, not double-counted.
func TestCheckpointResumeWithRedelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint fixture skipped in -short mode")
	}
	f := loadFixture(t)
	cut := len(f.lines) / 2
	const overlap = 200 // lines redelivered after resume

	// Uninterrupted control run.
	control := streamSnapshot(t, f, 64)

	// First process: ingest half, advance, checkpoint, "crash".
	eng1, err := stream.New(f.streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	feed1 := stream.NewFeed(eng1, "syslog")
	for _, line := range f.lines[:cut] {
		if err := feed1.Line(line); err != nil {
			t.Fatal(err)
		}
	}
	eng1.Advance()
	cp := eng1.Checkpoint()
	path := filepath.Join(t.TempDir(), "checkpoint.json")
	if err := stream.SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}

	// Second process: load, resume, redeliver the tail with overlap.
	loaded, err := stream.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := stream.Resume(f.streamConfig(), loaded)
	if err != nil {
		t.Fatal(err)
	}
	feed2 := stream.NewFeed(eng2, "syslog")
	start := cut - overlap
	feed2.SetStart(int64(start)) // the producer replays from before the cut
	for i, line := range f.lines[start:] {
		if err := feed2.Line(line); err != nil {
			t.Fatal(err)
		}
		if (i+1)%64 == 0 {
			eng2.Advance()
		}
	}
	eng2.FlushAll()

	st := eng2.Status()
	if len(st.Sources) != 1 || st.Sources[0].Dups != overlap {
		t.Fatalf("dups = %+v, want %d redelivered lines absorbed", st.Sources, overlap)
	}
	if st.Quarantine.Late != 0 {
		t.Fatalf("resume quarantined %d events", st.Quarantine.Late)
	}

	snap, err := stream.BuildSnapshot(eng2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range stream.TableNames() {
		if got, want := string(snap.Tables[name].Text), string(control.Tables[name].Text); got != want {
			t.Errorf("table %s diverges after resume\n--- resumed\n%s\n--- control\n%s", name, got, want)
		}
	}
	if snap.Status.SealedRawEvents != control.Status.SealedRawEvents {
		t.Errorf("sealed raw = %d, control %d", snap.Status.SealedRawEvents, control.Status.SealedRawEvents)
	}
}

// TestCheckpointRejectsMismatch: version and horizon guards refuse to
// resume into a differently configured engine.
func TestCheckpointRejectsMismatch(t *testing.T) {
	eng := newEngine(t)
	cp := eng.Checkpoint()

	wrongVersion := *cp
	wrongVersion.Version = 99
	if _, err := stream.Resume(testConfig(), &wrongVersion); err == nil {
		t.Fatal("resumed from a future checkpoint version")
	}

	cfg := testConfig()
	cfg.Horizon = 2 * stream.DefaultHorizon
	if _, err := stream.Resume(cfg, cp); err == nil {
		t.Fatal("resumed across a horizon change")
	}

	// Nil checkpoint means a cold start.
	if _, err := stream.Resume(testConfig(), nil); err != nil {
		t.Fatalf("nil checkpoint should cold-start: %v", err)
	}
}

// TestSaveCheckpointAtomic: the file lands complete and loadable, and a
// failed tmp write never replaces an existing checkpoint.
func TestSaveCheckpointRoundTrip(t *testing.T) {
	eng := newEngine(t)
	feed := stream.NewFeed(eng, "feed")
	if err := feed.Event(event(0, "gpub001", 1, 31)); err != nil {
		t.Fatal(err)
	}
	eng.FlushAll()
	cp := eng.Checkpoint()

	path := filepath.Join(t.TempDir(), "cp.json")
	if err := stream.SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	loaded, err := stream.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.SealedRaw != cp.SealedRaw || !loaded.Watermark.Equal(cp.Watermark) ||
		len(loaded.Sources) != len(cp.Sources) {
		t.Fatalf("round trip mismatch: %+v vs %+v", loaded, cp)
	}
	if _, err := stream.LoadCheckpoint(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("loaded a missing checkpoint")
	}
}

// TestResumeCommittedV1Checkpoint: a version-1 checkpoint written by an
// earlier engine still resumes, and finishing the log from it gives the
// same tables, status and final checkpoint as one uninterrupted run.
//
// testdata/v1resume/checkpoint.json was written by the engine at commit
// 1a1d294, before its state was one record: the first v1cut lines of
// testdata/v1resume/syslog.log fed as source "syslog" under testConfig,
// with an Advance after every v1every-th line, then Checkpoint and
// SaveCheckpoint. The log is a simulator excerpt plus a malformed Xid
// line, a noise line, a late event and an out-of-order event, so the
// checkpoint carries sealed and pending events, an open coalescing window,
// a quarantine sample and a clock regression.
func TestResumeCommittedV1Checkpoint(t *testing.T) {
	const v1cut, v1every = 320, 64
	data, err := os.ReadFile("testdata/v1resume/syslog.log")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	// feed pushes lines[from:] with the checkpointed run's Advance cadence
	// (by absolute line index), then flushes.
	feed := func(eng *stream.Engine, from int) {
		f := stream.NewFeed(eng, "syslog")
		f.SetStart(int64(from))
		for i := from; i < len(lines); i++ {
			if err := f.Line(lines[i]); err != nil {
				t.Fatal(err)
			}
			if (i+1)%v1every == 0 {
				eng.Advance()
			}
		}
		eng.FlushAll()
	}

	control := newEngine(t)
	feed(control, 0)

	cp, err := stream.LoadCheckpoint("testdata/v1resume/checkpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	if cp.Version != 1 || len(cp.Sources) != 1 || cp.Sources[0].Lines != v1cut {
		t.Fatalf("fixture is not the v1 checkpoint at line %d: version %d, sources %+v", v1cut, cp.Version, cp.Sources)
	}
	if len(cp.Pending) == 0 || len(cp.Coalescer.Entries) == 0 || cp.Quarantine.Late != 1 || cp.Extract.Malformed != 1 {
		t.Fatalf("fixture lost the state it exists to carry: pending %d, windows %d, late %d, malformed %d",
			len(cp.Pending), len(cp.Coalescer.Entries), cp.Quarantine.Late, cp.Extract.Malformed)
	}
	resumed, err := stream.Resume(testConfig(), cp)
	if err != nil {
		t.Fatal(err)
	}
	feed(resumed, v1cut)

	want, err := stream.BuildSnapshot(control)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stream.BuildSnapshot(resumed)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range stream.TableNames() {
		if !bytes.Equal(got.Tables[name].Text, want.Tables[name].Text) {
			t.Errorf("table %s text diverges after resume\n--- resumed\n%s\n--- control\n%s",
				name, got.Tables[name].Text, want.Tables[name].Text)
		}
		if !bytes.Equal(got.Tables[name].JSON, want.Tables[name].JSON) {
			t.Errorf("table %s JSON diverges after resume\n--- resumed\n%s\n--- control\n%s",
				name, got.Tables[name].JSON, want.Tables[name].JSON)
		}
	}
	gotCP, err := json.Marshal(resumed.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	wantCP, err := json.Marshal(control.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCP, wantCP) {
		t.Errorf("final checkpoint diverges after resume\n--- resumed\n%s\n--- control\n%s", gotCP, wantCP)
	}
}

// TestResumeDropsTailerOffsets: a checkpoint's tailer offsets position
// tailers (RestoreTailers) and never become engine state, so a resumed
// engine's status and its next checkpoint carry no offset until the daemon
// sets one again.
func TestResumeDropsTailerOffsets(t *testing.T) {
	eng := newEngine(t)
	if err := stream.NewFeed(eng, "feed").Event(event(0, "gpub001", 1, 31)); err != nil {
		t.Fatal(err)
	}
	cp := eng.Checkpoint()
	cp.Sources[0].Offset = 4096
	resumed, err := stream.Resume(testConfig(), cp)
	if err != nil {
		t.Fatal(err)
	}
	if st := resumed.Status(); len(st.Sources) != 1 || st.Sources[0].Offset != 0 || st.Sources[0].Lines != 1 {
		t.Fatalf("resumed status sources = %+v, want line 1 and no offset", st.Sources)
	}
	if again := resumed.Checkpoint(); again.Sources[0].Offset != 0 {
		t.Fatalf("re-checkpointed offset = %d, want 0", again.Sources[0].Offset)
	}
	if cp.Sources[0].Offset != 4096 {
		t.Fatal("Resume modified its checkpoint")
	}
}

// TestCheckpointSharesNoState: a checkpoint is a value. Sealing in the
// engine it came from, or in an engine resumed from it, rewrites the
// pending buffer in place, and must leave the checkpoint as it was — so
// one checkpoint can be resumed from twice, as after a crash right after a
// resume.
func TestCheckpointSharesNoState(t *testing.T) {
	eng := newEngine(t)
	feed := stream.NewFeed(eng, "feed")
	for i := 0; i < 4; i++ {
		if err := feed.Event(event(time.Duration(i)*time.Minute, "gpub001", 1, 31)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Advance() // seals minutes 0-2; minute 3 stays pending
	cp := eng.Checkpoint()
	if len(cp.Pending) != 1 {
		t.Fatalf("pending = %d, want 1", len(cp.Pending))
	}
	// The engine is resumed from a copy whose buffer has spare capacity, as
	// one decoded from JSON may, so an engine that kept using that array
	// would append into it in place.
	grown := *cp
	grown.Pending = slices.Grow(slices.Clone(cp.Pending), 4)
	before, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := stream.Resume(testConfig(), &grown)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*stream.Engine{eng, resumed} {
		f := stream.NewFeed(e, "feed")
		f.SetStart(4)
		if err := f.Event(event(10*time.Minute, "gpub002", 0, 79)); err != nil {
			t.Fatal(err)
		}
		e.Advance() // seals minute 3, moving minute 10 to the buffer's front
	}
	for name, c := range map[string]*stream.Checkpoint{"taken": cp, "resumed": &grown} {
		after, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("%s checkpoint changed under later ingest\n--- before\n%s\n--- after\n%s", name, before, after)
		}
	}
}
