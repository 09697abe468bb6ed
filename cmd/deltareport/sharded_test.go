package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// writeLogPair writes one operational-window syslog whole and split in two,
// returning (whole, part1, part2).
func writeLogPair(t *testing.T, dir string) (string, string, string) {
	t.Helper()
	var buf bytes.Buffer
	w, err := syslog.NewWriter(&buf, syslog.DefaultWriterConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	base := calib.Op().Start.Add(time.Hour)
	codes := []xid.Code{xid.MMU, xid.DBE, xid.NVLink}
	for i := 0; i < 40; i++ {
		ev := xid.Event{Time: xid.Time(base.Add(time.Duration(i) * time.Hour).UnixNano()),
			Node: []string{"gpub001", "gpub002", "gpub003"}[i%3], GPU: int32(i % 4),
			Code: codes[i%len(codes)], Detail: "d"}
		if _, err := w.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	lines := bytes.SplitAfter(data, []byte("\n"))
	mid := len(lines) / 2
	whole := filepath.Join(dir, "whole.txt")
	p1 := filepath.Join(dir, "part1.log")
	p2 := filepath.Join(dir, "part2.log")
	for path, content := range map[string][]byte{
		whole: data, p1: bytes.Join(lines[:mid], nil), p2: bytes.Join(lines[mid:], nil),
	} {
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return whole, p1, p2
}

// TestRunLogsMode: -logs analyzes existing files instead of simulating,
// and sharded input matches the single file byte for byte.
func TestRunLogsMode(t *testing.T) {
	dir := t.TempDir()
	whole, p1, p2 := writeLogPair(t, dir)

	var single, sharded bytes.Buffer
	if err := run([]string{"-logs", whole}, &single, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(single.String(), "Table I") {
		t.Fatalf("-logs mode output:\n%s", single.String())
	}
	if err := run([]string{"-logs", p1, "-logs", p2}, &sharded, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if sharded.String() != single.String() {
		t.Fatalf("sharded -logs report diverges:\n%s\nvs\n%s", sharded.String(), single.String())
	}
}

// TestRunLogsModeRejectsSimulatorFlags: the simulator-only switches are
// incompatible with -logs.
func TestRunLogsModeRejectsSimulatorFlags(t *testing.T) {
	dir := t.TempDir()
	whole, _, _ := writeLogPair(t, dir)
	for _, bad := range []string{"-ext", "-trend", "-hopper", "-rate"} {
		err := run([]string{"-logs", whole, bad}, &bytes.Buffer{}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "need the simulator") {
			t.Fatalf("%s with -logs: err = %v", bad, err)
		}
	}
}

// TestRunLogsCacheWarm: -cache-dir warm rerun is byte-identical in -logs
// mode.
func TestRunLogsCacheWarm(t *testing.T) {
	dir := t.TempDir()
	_, p1, p2 := writeLogPair(t, dir)
	cacheDir := filepath.Join(dir, "cache")
	args := []string{"-logs", p1, "-logs", p2, "-cache-dir", cacheDir}

	var cold, warm bytes.Buffer
	if err := run(args, &cold, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if entries, _ := filepath.Glob(filepath.Join(cacheDir, "*.evshard")); len(entries) != 2 {
		t.Fatalf("cache entries: %v", entries)
	}
	if err := run(args, &warm, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if warm.String() != cold.String() {
		t.Fatal("warm -logs report diverges from cold")
	}
}
