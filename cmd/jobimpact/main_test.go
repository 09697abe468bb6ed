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
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// writeDataset builds a minimal consistent dataset: one job killed by an
// MMU error, one that completed.
func writeDataset(t *testing.T, dir string) {
	t.Helper()
	start := calib.Op().Start.Add(24 * time.Hour)
	end := start.Add(2 * time.Hour)

	lf, err := os.Create(filepath.Join(dir, dataset.SyslogFile))
	if err != nil {
		t.Fatal(err)
	}
	w, err := syslog.NewWriter(lf, syslog.DefaultWriterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ev := xid.Event{Time: xid.Time(end.Add(-5 * time.Second).UnixNano()), Node: "gpub001", GPU: 0,
		Code: xid.MMU, Detail: "d"}
	if _, err := w.WriteEvent(ev); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := lf.Close(); err != nil {
		t.Fatal(err)
	}

	jobs := []*slurmsim.Job{
		{ID: 1, Text: &slurmsim.JobText{Name: "victim", User: "u", Partition: "gpuA100x4"}, GPUs: 1,
			Submit: slurmsim.At(start.Add(-time.Minute)), Start: slurmsim.At(start), End: slurmsim.At(end),
			State: slurmsim.StateNodeFail, ExitCode: 1,
			Place: &slurmsim.Placement{{Node: "gpub001", GPUs: []int{0}}}},
		{ID: 2, Text: &slurmsim.JobText{Name: "train_model", User: "u", Partition: "gpuA100x4"}, GPUs: 4,
			Submit: slurmsim.At(start), Start: slurmsim.At(start), End: slurmsim.At(start.Add(time.Hour)),
			State: slurmsim.StateCompleted,
			Place: &slurmsim.Placement{{Node: "gpub002", GPUs: []int{0, 1, 2, 3}}}, ML: true},
	}
	jf, err := os.Create(filepath.Join(dir, dataset.JobsFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := slurmsim.DumpDB(jf, jobs); err != nil {
		t.Fatal(err)
	}
	if err := jf.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := dataset.WriteManifest(dir, 1, 1, "", 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithDataset(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir)
	var out bytes.Buffer
	if err := run([]string{"-data", dir}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "MMU Error") || !strings.Contains(s, "100.00") {
		t.Fatalf("Table II missing attribution:\n%s", s)
	}
	if !strings.Contains(s, "GPU jobs: 2") {
		t.Fatalf("Table III missing jobs:\n%s", s)
	}
}

func TestRunAttributionWindowFlag(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir)
	var out bytes.Buffer
	// A 1-second window misses the error 5 s before the failure.
	if err := run([]string{"-data", dir, "-attr", "1s"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Total GPU-failed jobs: 0") {
		t.Fatalf("narrow window still attributed:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("missing flags accepted")
	}
	if err := run([]string{"-logs", "x", "-jobs", "/nope"}, &out); err == nil {
		t.Fatal("missing files accepted")
	}
}
