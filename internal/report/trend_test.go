package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/stats"
	"gpuresilience/internal/xid"
)

func TestWriteTrend(t *testing.T) {
	full := calib.Full()
	var events []xid.Event
	// A memory burst in month 5 and steady hardware errors in the op period.
	burstStart := full.Start.Add(4 * 30 * 24 * time.Hour)
	for i := 0; i < 500; i++ {
		events = append(events, xid.Event{
			Time: xid.Time(burstStart.Add(time.Duration(i) * time.Hour).UnixNano()),
			Node: "n1", GPU: 0, Code: xid.UncontainedMem,
		})
	}
	opStart := calib.Op().Start
	for i := 0; i < 100; i++ {
		events = append(events, xid.Event{
			Time: xid.Time(opStart.Add(time.Duration(i) * 24 * time.Hour).UnixNano()),
			Node: "n2", GPU: 1, Code: xid.GSPRPCTimeout,
		})
	}
	// Excluded software errors must not appear.
	events = append(events, xid.Event{Time: xid.Time(opStart.UnixNano()), Node: "n2", GPU: 1, Code: xid.GPUSoftware})

	var buf bytes.Buffer
	if err := WriteTrend(&buf, events, full); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "2022-05") || !strings.Contains(out, "2024") {
		t.Fatalf("trend missing months:\n%s", out)
	}
	// The burst month dominates: it should hold the widest bar.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var maxHashes int
	var maxLine string
	for _, l := range lines[1:] {
		c := strings.Count(l, "#")
		if c > maxHashes {
			maxHashes, maxLine = c, l
		}
	}
	if !strings.HasPrefix(maxLine, "2022-05") {
		t.Fatalf("widest bar = %q, want the May 2022 burst", maxLine)
	}
	if !strings.Contains(maxLine, "M 500") { // memory-dominated counts
		t.Fatalf("burst line lacks memory counts: %q", maxLine)
	}
}

func TestWriteTrendBadPeriod(t *testing.T) {
	bad := stats.Period{Start: calib.Full().End, End: calib.Full().Start}
	if err := WriteTrend(&bytes.Buffer{}, nil, bad); err == nil {
		t.Fatal("bad period accepted")
	}
}
