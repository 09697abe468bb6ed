package main

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestRunAblations(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scale", "0.002", "-seed", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "A1: coalescing-window sweep") ||
		!strings.Contains(s, "A2: attribution-window sweep") {
		t.Fatalf("output:\n%s", s)
	}
	// The zero window counts every raw line and must exceed the baseline.
	rows := a1Sweep(t, s)
	var zero, base *a1Row
	for i := range rows {
		switch rows[i].window {
		case "0s":
			zero = &rows[i]
		case "5s":
			base = &rows[i]
		}
	}
	if zero == nil || base == nil {
		t.Fatalf("sweep rows missing:\n%s", s)
	}
	if base.ratio != "1.00x" || zero.kept <= base.kept {
		t.Fatalf("zero window %+v, baseline %+v", *zero, *base)
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-x"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// a1Row is one row of ablate's A1 sweep.
type a1Row struct {
	window string
	kept   int
	ratio  string
}

// a1Sweep parses the A1 section of ablate's output, the rows between the
// sweep's column header and A2, and checks ablation relation A1 on them:
// greedy Δt coalescing keeps a minimum cover of each key's events by
// windows, so Stage II never keeps more events at a wider window.
func a1Sweep(t *testing.T, s string) []a1Row {
	t.Helper()
	lo, hi := strings.Index(s, "\nwindow "), strings.Index(s, "A2:")
	if lo < 0 || hi < lo {
		t.Fatalf("no A1 sweep in:\n%s", s)
	}
	var rows []a1Row
	for _, line := range strings.Split(strings.TrimSpace(s[lo:hi]), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("A1 row %q", line)
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			t.Fatalf("A1 row %q: %v", line, err)
		}
		if len(rows) > 0 && n > rows[len(rows)-1].kept {
			prev := rows[len(rows)-1]
			t.Errorf("Δt %s keeps %d events, more than the %d at %s", f[0], n, prev.kept, prev.window)
		}
		rows = append(rows, a1Row{window: f[0], kept: n, ratio: f[2]})
	}
	return rows
}

// TestA1KeptNonIncreasing is relation A1 on the seed-1, scale-0.05 log,
// whose sweep falls from every raw event (60,510) at Δt = 0 to 1,875 at
// 30 min.
func TestA1KeptNonIncreasing(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 0.05-scale fleet")
	}
	var out bytes.Buffer
	if err := run([]string{"-seed", "1", "-scale", "0.05"}, &out); err != nil {
		t.Fatal(err)
	}
	var windows []string
	var counts []int
	for _, r := range a1Sweep(t, out.String()) {
		windows, counts = append(windows, r.window), append(counts, r.kept)
	}
	wantWindows := []string{"0s", "1s", "5s", "30s", "1m0s", "5m0s", "30m0s"}
	want := []int{60510, 5380, 4140, 3953, 3769, 3001, 1875}
	if !slices.Equal(windows, wantWindows) || !slices.Equal(counts, want) {
		t.Fatalf("A1 sweep over %v: %v, want %v over %v", windows, counts, want, wantWindows)
	}
}
