package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// splitFile copies the first half of src's lines into a1 and the rest
// into a2.
func splitFile(t *testing.T, src, a1, a2 string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	mid := len(lines) / 2
	if err := os.WriteFile(a1, bytes.Join(lines[:mid], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(a2, bytes.Join(lines[mid:], nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRunShardedLogsMatchSingle: repeated -logs flags and a glob both
// produce byte-identical output to the single-file run.
func TestRunShardedLogsMatchSingle(t *testing.T) {
	dir := t.TempDir()
	whole := filepath.Join(dir, "whole.txt")
	writeLogs(t, whole, 40)
	splitFile(t, whole, filepath.Join(dir, "part_a.log"), filepath.Join(dir, "part_b.log"))

	var single bytes.Buffer
	if err := run([]string{"-logs", whole}, &single); err != nil {
		t.Fatal(err)
	}
	var repeated bytes.Buffer
	if err := run([]string{
		"-logs", filepath.Join(dir, "part_a.log"),
		"-logs", filepath.Join(dir, "part_b.log"),
	}, &repeated); err != nil {
		t.Fatal(err)
	}
	if repeated.String() != single.String() {
		t.Fatalf("repeated -logs diverges:\n%s\nvs\n%s", repeated.String(), single.String())
	}
	var globbed bytes.Buffer
	if err := run([]string{"-logs", filepath.Join(dir, "part_*.log")}, &globbed); err != nil {
		t.Fatal(err)
	}
	if globbed.String() != single.String() {
		t.Fatalf("glob -logs diverges:\n%s\nvs\n%s", globbed.String(), single.String())
	}
}

// TestRunCacheColdWarm: the second -cache-dir run is byte-identical to the
// first, entries appear on disk, and -no-cache leaves the directory empty.
func TestRunCacheColdWarm(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "syslog.txt")
	writeLogs(t, path, 30)
	cacheDir := filepath.Join(dir, "cache")

	var cold bytes.Buffer
	if err := run([]string{"-logs", path, "-cache-dir", cacheDir}, &cold); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(cacheDir, "*.evshard"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache entries after cold run: %v, %v", entries, err)
	}
	var warm bytes.Buffer
	if err := run([]string{"-logs", path, "-cache-dir", cacheDir}, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.String() != cold.String() {
		t.Fatalf("warm output diverges:\n%s\nvs\n%s", warm.String(), cold.String())
	}

	noCacheDir := filepath.Join(dir, "nocache")
	var out bytes.Buffer
	if err := run([]string{"-logs", path, "-cache-dir", noCacheDir, "-no-cache"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != cold.String() {
		t.Fatal("-no-cache output diverges")
	}
	if entries, _ := filepath.Glob(filepath.Join(noCacheDir, "*")); len(entries) != 0 {
		t.Fatalf("-no-cache wrote entries: %v", entries)
	}
}

// TestRunWarmMetricsShowCacheHit: with -metrics, the warm run's snapshot
// shows the cache hit and no Stage I span.
func TestRunWarmMetricsShowCacheHit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "syslog.txt")
	writeLogs(t, path, 20)
	cacheDir := filepath.Join(dir, "cache")

	var cold bytes.Buffer
	if err := run([]string{"-logs", path, "-cache-dir", cacheDir, "-metrics"}, &cold); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cold.String(), "cache.miss") || !strings.Contains(cold.String(), "stage1.extract") {
		t.Fatalf("cold metrics:\n%s", cold.String())
	}
	var warm bytes.Buffer
	if err := run([]string{"-logs", path, "-cache-dir", cacheDir, "-metrics"}, &warm); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.String(), "cache.hit") {
		t.Fatalf("warm metrics missing cache.hit:\n%s", warm.String())
	}
	if strings.Contains(warm.String(), "stage1.extract") {
		t.Fatalf("warm run recorded stage1.extract:\n%s", warm.String())
	}
}

// TestRunUnwritableCacheDir: a -cache-dir that cannot be created (its
// parent is a regular file) is a counted bypass, not a failure. The run
// succeeds, prints the tables of a run with no cache, and its metrics
// count the entry it could not write.
func TestRunUnwritableCacheDir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "syslog.txt")
	writeLogs(t, path, 20)
	cacheDir := filepath.Join(path, "sub")

	var want bytes.Buffer
	if err := run([]string{"-logs", path}, &want); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run([]string{"-logs", path, "-cache-dir", cacheDir}, &got); err != nil {
		t.Fatalf("unwritable -cache-dir failed the run: %v", err)
	}
	if got.String() != want.String() {
		t.Fatalf("unwritable -cache-dir output diverges:\n%s\nvs\n%s", got.String(), want.String())
	}
	var metrics bytes.Buffer
	if err := run([]string{"-logs", path, "-cache-dir", cacheDir, "-metrics"}, &metrics); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics.String(), "cache.write_failed") || !strings.Contains(metrics.String(), "cache.miss") {
		t.Fatalf("metrics do not count the failed store as a miss and a write_failed:\n%s", metrics.String())
	}
}
