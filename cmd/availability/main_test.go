package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpuresilience/internal/cluster"
	"gpuresilience/internal/dataset"
	"gpuresilience/internal/nodesim"
)

func writeRepairs(t *testing.T, dir string) {
	t.Helper()
	t0 := time.Date(2023, 4, 1, 0, 0, 0, 0, time.UTC)
	downtimes := []cluster.NodeDowntime{
		{Node: "gpub001", Downtime: nodesim.Downtime{Start: t0, End: t0.Add(30 * time.Minute), Reason: "mmu"}},
		{Node: "gpub001", Downtime: nodesim.Downtime{Start: t0.Add(24 * time.Hour), End: t0.Add(25 * time.Hour), Reason: "gsp"}},
		{Node: "gpub002", Downtime: nodesim.Downtime{Start: t0, End: t0.Add(4 * time.Hour), Reason: "swap", Swapped: true}},
	}
	f, err := os.Create(filepath.Join(dir, dataset.RepairsFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := cluster.WriteDowntimes(f, downtimes); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithRepairsFlag(t *testing.T) {
	dir := t.TempDir()
	writeRepairs(t, dir)
	var out bytes.Buffer
	if err := run([]string{"-repairs", filepath.Join(dir, dataset.RepairsFile)}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Repairs: 3") || !strings.Contains(s, "Figure 2") {
		t.Fatalf("output:\n%s", s)
	}
	// Worst node is the one with the 4h swap.
	if !strings.Contains(s, "gpub002") {
		t.Fatalf("worst-node section missing:\n%s", s)
	}
	// No logs -> no MTTF line.
	if strings.Contains(s, "MTTF") {
		t.Fatalf("MTTF printed without logs:\n%s", s)
	}
}

func TestRunWithDataset(t *testing.T) {
	dir := t.TempDir()
	writeRepairs(t, dir)
	if _, err := dataset.WriteManifest(dir, 1, 1, "", 1); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-data", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Repairs: 3") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("missing flags accepted")
	}
	if err := run([]string{"-repairs", "/nope"}, &out); err == nil {
		t.Fatal("missing repairs file accepted")
	}
}
