package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/dataset"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// writeShardedLogs writes one syslog split across two day files plus the
// unsplit original, returning the three paths.
func writeShardedLogs(t *testing.T, dir string) (whole, day1, day2 string) {
	t.Helper()
	var buf bytes.Buffer
	w, err := syslog.NewWriter(&buf, syslog.DefaultWriterConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	base := calib.Op().Start.Add(time.Hour)
	for i := 0; i < 30; i++ {
		ev := xid.Event{Time: xid.Time(base.Add(time.Duration(i) * time.Hour).UnixNano()),
			Node: []string{"gpub001", "gpub002"}[i%2], GPU: int32(i % 4),
			Code: xid.MMU, Detail: "d"}
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
	whole = filepath.Join(dir, "whole.txt")
	day1 = filepath.Join(dir, "day1.log")
	day2 = filepath.Join(dir, "day2.log")
	for path, content := range map[string][]byte{
		whole: data,
		day1:  bytes.Join(lines[:mid], nil),
		day2:  bytes.Join(lines[mid:], nil),
	} {
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return whole, day1, day2
}

// TestRunShardedLogsMatchSingle: the availability report from repeated
// -logs (and from a glob) is byte-identical to the single-file run.
func TestRunShardedLogsMatchSingle(t *testing.T) {
	dir := t.TempDir()
	writeRepairs(t, dir)
	repairs := filepath.Join(dir, dataset.RepairsFile)
	whole, day1, day2 := writeShardedLogs(t, dir)

	var single bytes.Buffer
	if err := run([]string{"-repairs", repairs, "-logs", whole}, &single); err != nil {
		t.Fatal(err)
	}
	var sharded bytes.Buffer
	if err := run([]string{"-repairs", repairs, "-logs", day1, "-logs", day2}, &sharded); err != nil {
		t.Fatal(err)
	}
	if sharded.String() != single.String() {
		t.Fatalf("sharded availability diverges:\n%s\nvs\n%s", sharded.String(), single.String())
	}
	var globbed bytes.Buffer
	if err := run([]string{"-repairs", repairs, "-logs", filepath.Join(dir, "day*.log")}, &globbed); err != nil {
		t.Fatal(err)
	}
	if globbed.String() != single.String() {
		t.Fatal("glob availability diverges from single-file run")
	}
}

// TestRunShardedWithCache: warm cache rerun of the sharded availability
// report is byte-identical.
func TestRunShardedWithCache(t *testing.T) {
	dir := t.TempDir()
	writeRepairs(t, dir)
	repairs := filepath.Join(dir, dataset.RepairsFile)
	_, day1, day2 := writeShardedLogs(t, dir)
	cacheDir := filepath.Join(dir, "cache")

	args := []string{"-repairs", repairs, "-logs", day1, "-logs", day2, "-cache-dir", cacheDir}
	var cold, warm bytes.Buffer
	if err := run(args, &cold); err != nil {
		t.Fatal(err)
	}
	if entries, _ := filepath.Glob(filepath.Join(cacheDir, "*.evshard")); len(entries) != 2 {
		t.Fatalf("cache entries: %v", entries)
	}
	if err := run(args, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.String() != cold.String() {
		t.Fatal("warm availability diverges from cold")
	}
}
