package stream_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpuresilience/internal/stream"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/checkpoint.json")

// goldenPath is a checkpoint taken mid-replay of goldenLines: the first
// goldenCut lines fed as source "syslog" under testConfig, with an Advance
// after every goldenEvery-th line, then Checkpoint and SaveCheckpoint. Its
// pending and sealed events each fill more than one 341-event block, so
// its bytes pin how a block-held state is written.
const (
	goldenPath  = "testdata/golden/checkpoint.json"
	goldenEvery = 450
	goldenCut   = 800
)

// goldenLines is a synthetic log, the same on every run: one Xid event
// every 700 ms over 37 nodes, four GPUs and seven codes, so no two events
// of a key fall within Δt; every ninth event repeated 1.5 s later, a
// duplicate Stage II coalesces away that also arrives out of time order;
// a noise line after every eleventh; one malformed Xid line; and one event
// stamped before the first Advance's watermark, which is quarantined.
func goldenLines() []string {
	codes := []xid.Code{31, 48, 63, 74, 79, 94, 119}
	var lines []string
	add := func(ev xid.Event) { lines = append(lines, string(syslog.AppendLine(nil, ev, 0, "feed"))) }
	for i := 0; len(lines) < 2*goldenCut; i++ {
		ev := event(time.Duration(i)*700*time.Millisecond, fmt.Sprintf("gpub%03d", 1+i%37), i%4, codes[i%len(codes)])
		add(ev)
		if i%9 == 0 {
			dup := ev
			dup.Time += xid.Time(1500 * time.Millisecond)
			add(dup)
		}
		if i%11 == 0 {
			lines = append(lines, string(syslog.AppendNoise(nil, opT(time.Duration(i)*700*time.Millisecond), ev.Node, i)))
		}
		switch i {
		case 300:
			lines = append(lines, "2022-13-45T99:00:00.000000Z gpub001 kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=0, name=feed, ")
		case 550:
			add(event(time.Second, "gpub040", 0, xid.MMU))
		}
	}
	return lines
}

// feedGolden pushes lines[from:to] as source "syslog" with the golden
// run's Advance cadence, by absolute line index.
func feedGolden(t *testing.T, eng *stream.Engine, lines []string, from, to int) {
	t.Helper()
	f := stream.NewFeed(eng, "syslog")
	f.SetStart(int64(from))
	for i := from; i < to; i++ {
		if err := f.Line(lines[i]); err != nil {
			t.Fatal(err)
		}
		if (i+1)%goldenEvery == 0 {
			eng.Advance()
		}
	}
}

// checkpointBytes is what SaveCheckpoint writes for cp.
func checkpointBytes(t *testing.T, cp *stream.Checkpoint) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "checkpoint.json")
	if err := stream.SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenCheckpointBytes: the engine writes the committed golden
// checkpoint byte for byte from the same mid-replay state, and that state
// holds more than one block each of pending and sealed events.
func TestGoldenCheckpointBytes(t *testing.T) {
	lines := goldenLines()
	eng := newEngine(t)
	feedGolden(t, eng, lines, 0, goldenCut)
	st := eng.Status()
	if st.PendingEvents <= 341 || st.SealedEvents <= 341 || st.Quarantine.Late != 1 || st.Extract.Malformed != 1 {
		t.Fatalf("golden state lost what it exists to carry: pending %d, sealed %d, late %d, malformed %d",
			st.PendingEvents, st.SealedEvents, st.Quarantine.Late, st.Extract.Malformed)
	}
	got := checkpointBytes(t, eng.Checkpoint())
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint differs from %s (%d bytes, want %d); rerun with -update only if the format is meant to change",
			goldenPath, len(got), len(want))
	}
}

// TestGoldenCheckpointResume: resuming from the golden checkpoint and
// finishing the log gives the same tables and final checkpoint as one
// uninterrupted replay.
func TestGoldenCheckpointResume(t *testing.T) {
	lines := goldenLines()
	control := newEngine(t)
	feedGolden(t, control, lines, 0, len(lines))
	control.FlushAll()

	cp, err := stream.LoadCheckpoint(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := stream.Resume(testConfig(), cp)
	if err != nil {
		t.Fatal(err)
	}
	feedGolden(t, resumed, lines, goldenCut, len(lines))
	resumed.FlushAll()
	requireSameEngine(t, resumed, control)
}

// requireSameEngine fails unless got and want serve the same tables, text
// and JSON, and write the same checkpoint.
func requireSameEngine(t *testing.T, got, want *stream.Engine) {
	t.Helper()
	gotSnap, err := stream.BuildSnapshot(got)
	if err != nil {
		t.Fatal(err)
	}
	wantSnap, err := stream.BuildSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range stream.TableNames() {
		if !bytes.Equal(gotSnap.Tables[name].Text, wantSnap.Tables[name].Text) {
			t.Errorf("table %s text diverges\n--- got\n%s\n--- want\n%s",
				name, gotSnap.Tables[name].Text, wantSnap.Tables[name].Text)
		}
		if !bytes.Equal(gotSnap.Tables[name].JSON, wantSnap.Tables[name].JSON) {
			t.Errorf("table %s JSON diverges\n--- got\n%s\n--- want\n%s",
				name, gotSnap.Tables[name].JSON, wantSnap.Tables[name].JSON)
		}
	}
	gotCP, err := json.Marshal(got.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	wantCP, err := json.Marshal(want.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCP, wantCP) {
		t.Errorf("final checkpoint diverges\n--- got\n%s\n--- want\n%s", gotCP, wantCP)
	}
}

// TestCheckpointTruncatedAtEveryPrefix: a checkpoint cut short, as by a
// crash mid-write without SaveCheckpoint's rename, never resumes wrong.
// Every strict prefix of the golden checkpoint either fails to decode as
// LoadCheckpoint decodes a file, or fails Resume, or is the whole file
// without its trailing newline and resumes to an engine that writes the
// golden bytes again. Each prefix costs a scan of itself, so the race
// detector and -short take every 31st prefix and the last 512.
func TestCheckpointTruncatedAtEveryPrefix(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	step := 1
	if raceEnabled || testing.Short() {
		step = 31
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	var resumed atomic.Int32
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := w; n < len(data); n += workers {
				if n%step != 0 && n < len(data)-512 {
					continue
				}
				cp, err := stream.DecodeCheckpoint(data[:n])
				if err != nil {
					continue
				}
				eng, err := stream.Resume(testConfig(), cp)
				if err != nil {
					continue
				}
				resumed.Add(1)
				if n != len(data)-1 {
					t.Errorf("prefix of %d of %d bytes resumed", n, len(data))
					continue
				}
				if got := checkpointBytes(t, eng.Checkpoint()); !bytes.Equal(got, data) {
					t.Errorf("prefix of %d bytes resumed to an engine that writes %d other bytes", n, len(got))
				}
			}
		}()
	}
	wg.Wait()
	if resumed.Load() != 1 {
		t.Errorf("%d prefixes resumed, want only the file without its newline", resumed.Load())
	}
}
