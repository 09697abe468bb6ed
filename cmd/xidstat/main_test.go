package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/dataset"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

func writeLogs(t *testing.T, path string, n int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := syslog.NewWriter(f, syslog.DefaultWriterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	base := calib.Op().Start.Add(time.Hour)
	for i := 0; i < n; i++ {
		ev := xid.Event{Time: base.Add(time.Duration(i) * time.Hour),
			Node: "gpub001", GPU: 0, Code: xid.MMU, Detail: "d"}
		if _, err := w.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithLogsFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "syslog.txt")
	writeLogs(t, path, 25)
	var out bytes.Buffer
	if err := run([]string{"-logs", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "MMU Error") ||
		!strings.Contains(out.String(), "25 coalesced errors") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunWithDataset(t *testing.T) {
	dir := t.TempDir()
	writeLogs(t, filepath.Join(dir, dataset.SyslogFile), 10)
	if _, err := dataset.WriteManifest(dir, 1, 1, "", 1); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-data", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "10 coalesced errors") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// The rendered table must be byte-identical at any -workers setting.
func TestRunWorkersInvariant(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "syslog.txt")
	writeLogs(t, path, 40)
	var want bytes.Buffer
	if err := run([]string{"-logs", path, "-workers", "1"}, &want); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"0", "4", "16"} {
		var out bytes.Buffer
		if err := run([]string{"-logs", path, "-workers", w}, &out); err != nil {
			t.Fatal(err)
		}
		if out.String() != want.String() {
			t.Fatalf("-workers %s output differs from sequential:\n%s\nvs\n%s",
				w, out.String(), want.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("missing flags accepted")
	}
	if err := run([]string{"-logs", "/does/not/exist"}, &out); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run([]string{"-data", t.TempDir()}, &out); err == nil {
		t.Fatal("dataset without manifest accepted")
	}
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
