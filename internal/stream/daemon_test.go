package stream_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gpuresilience/internal/obs"
	"gpuresilience/internal/stream"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// TestDaemonEndToEnd drives the full assembly: a tailed log file, the
// ingest loop on short intervals, live appends, snapshot publication, and
// a shutdown checkpoint.
func TestDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "syslog.txt")
	cpPath := filepath.Join(dir, "checkpoint.json")

	line := func(off time.Duration, node string) string {
		return string(syslog.AppendLine(nil, xid.Event{Time: xid.Time(opT(off).UnixNano()), Node: node, GPU: 0, Code: xid.MMU}, 1, "t")) + "\n"
	}
	if err := os.WriteFile(logPath, []byte(line(0, "gpub001")+line(time.Minute, "gpub002")), 0o644); err != nil {
		t.Fatal(err)
	}

	eng := newEngine(t)
	reg := obs.New()
	d := stream.NewDaemon(eng, stream.DaemonConfig{
		Tailers:        []*stream.Tailer{stream.NewTailer(logPath)},
		Poll:           5 * time.Millisecond,
		Refresh:        5 * time.Millisecond,
		IdleSeal:       30 * time.Millisecond,
		CheckpointPath: cpPath,
		Reg:            reg,
		Manifest:       obs.NewRunManifest("gpuresilienced"),
	})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()

	// Wait for the idle seal to flush both events into a snapshot.
	waitFor(t, func() bool {
		snap := d.Server().Latest()
		return snap != nil && snap.Status.SealedEvents == 2
	})

	// Live append: a third event must flow through tail -> engine ->
	// published snapshot without any restart.
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(line(2*time.Minute, "gpub003")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	waitFor(t, func() bool {
		snap := d.Server().Latest()
		return snap != nil && snap.Status.SealedEvents == 3
	})

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("daemon exited: %v", err)
	}

	// Shutdown wrote a checkpoint with the tailer's offset.
	cp, err := stream.LoadCheckpoint(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	if cp.SealedRaw != 3 || len(cp.Sources) != 1 {
		t.Fatalf("checkpoint = sealedRaw %d, sources %+v", cp.SealedRaw, cp.Sources)
	}
	if cp.Sources[0].Offset == 0 || cp.Sources[0].Lines != 3 {
		t.Fatalf("source checkpoint = %+v, want tailer offset and 3 lines", cp.Sources[0])
	}
	if cp.Manifest == nil || cp.Manifest.Tool != "gpuresilienced" {
		t.Fatalf("checkpoint manifest = %+v", cp.Manifest)
	}

	// Service gauges were exported.
	snap := reg.Snapshot()
	if _, ok := snap.Gauges["stream.sealed"]; !ok {
		t.Fatalf("gauges = %+v, want stream.sealed", snap.Gauges)
	}

	// A second daemon resumes from the checkpoint and re-reads nothing.
	eng2, err := stream.Resume(testConfig(), cp)
	if err != nil {
		t.Fatal(err)
	}
	tailer := stream.NewTailer(logPath)
	stream.RestoreTailers(cp, []*stream.Tailer{tailer})
	n, err := tailer.Poll(eng2.ConsumeLine)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("resumed tailer redelivered %d lines", n)
	}
	if st := eng2.Status(); st.SealedRawEvents != 3 {
		t.Fatalf("resumed engine sealedRaw = %d", st.SealedRawEvents)
	}
}

// waitFor polls cond with a generous deadline; wall-clock pacing keeps the
// test honest about the daemon's asynchrony without flaking under load.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
}
