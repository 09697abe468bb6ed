package syslog

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"gpuresilience/internal/xid"
)

var at = time.Date(2023, 6, 1, 12, 30, 45, 123456000, time.UTC)

func TestFormatParseRoundTrip(t *testing.T) {
	ev := xid.Event{Time: xid.Time(at.UnixNano()), Node: "gpub042", GPU: 2, Code: xid.NVLink, Detail: "link 1-2 CRC failure"}
	line := FormatLine(ev, 4242, "python")
	back, ok, err := ParseLine(line)
	if err != nil || !ok {
		t.Fatalf("parse: ok=%v err=%v", ok, err)
	}
	if back.Time != ev.Time || back.Node != ev.Node || back.GPU != ev.GPU ||
		back.Code != ev.Code || back.Detail != ev.Detail {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, ev)
	}
}

func TestParseRejectsNoise(t *testing.T) {
	if _, ok, err := ParseLine(FormatNoise(at, "gpub001", 3)); ok || err != nil {
		t.Fatalf("noise line parsed: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := ParseLine(""); ok {
		t.Fatal("empty line parsed")
	}
}

func TestParseMalformed(t *testing.T) {
	good := FormatLine(xid.Event{Time: xid.Time(at.UnixNano()), Node: "n", GPU: 0, Code: xid.MMU}, 1, "x")
	// Corrupt the timestamp but keep the Xid shape.
	bad := "9999-99-99T99:99:99.000000Z" + good[len("2023-06-01T12:30:45.123456Z"):]
	if _, _, err := ParseLine(bad); err == nil {
		t.Fatal("bad timestamp accepted")
	}
	// Unknown PCI address.
	bad2 := strings.Replace(good, "PCI:0000:07:00", "PCI:dead:beef", 1)
	if _, _, err := ParseLine(bad2); err == nil {
		t.Fatal("unknown PCI accepted")
	}
}

func TestPCIAddrRoundTripProperty(t *testing.T) {
	f := func(i uint8) bool {
		idx := int(i % 8)
		got, ok := GPUIndex(PCIAddr(idx))
		return ok && got == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Out-of-range indices still round-trip through the synthetic form.
	if got, ok := GPUIndex(PCIAddr(12)); !ok || got != 12 {
		t.Fatalf("synthetic PCI round trip: %d %v", got, ok)
	}
	if _, ok := GPUIndex("nonsense"); ok {
		t.Fatal("bad address resolved")
	}
}

func TestWriterDuplication(t *testing.T) {
	var buf bytes.Buffer
	cfg := DefaultWriterConfig()
	cfg.NoiseProb = 0
	w, err := NewWriter(&buf, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	total := 0
	for i := 0; i < n; i++ {
		ev := xid.Event{Time: xid.Time(at.Add(time.Duration(i) * time.Minute).UnixNano()), Node: "gpub001",
			GPU: 1, Code: xid.MMU, Detail: "d"}
		lines, err := w.WriteEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		total += lines
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	mean := float64(total) / n
	if math.Abs(mean-4) > 0.4 {
		t.Fatalf("MMU dup mean = %.2f, want ~4", mean)
	}
	if w.Lines() != total {
		t.Fatalf("Lines() = %d, wrote %d", w.Lines(), total)
	}
	// All duplicate lines parse back to the same coalescing key.
	events := 0
	st, _, err := Extract(&buf, Options{Workers: 1}, func(ev xid.Event) error {
		if ev.Code != xid.MMU || ev.Node != "gpub001" || ev.GPU != 1 {
			t.Fatalf("bad extracted event %+v", ev)
		}
		events++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if events != total || st.XIDLines != total || st.Skipped != 0 || st.Malformed != 0 {
		t.Fatalf("extract stats %+v, events %d", st, events)
	}
}

func TestWriterNoiseInterleaving(t *testing.T) {
	var buf bytes.Buffer
	cfg := DefaultWriterConfig()
	cfg.NoiseProb = 1
	w, err := NewWriter(&buf, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		ev := xid.Event{Time: xid.Time(at.Add(time.Duration(i) * time.Hour).UnixNano()), Node: "gpub002",
			GPU: 0, Code: xid.GSPRPCTimeout, Detail: "timeout"}
		if _, err := w.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	st, _, err := Extract(&buf, Options{Workers: 1}, func(xid.Event) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped != 50 {
		t.Fatalf("skipped = %d, want 50 noise lines", st.Skipped)
	}
	if st.XIDLines == 0 || st.Malformed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWriterConfigValidation(t *testing.T) {
	var buf bytes.Buffer
	bad := DefaultWriterConfig()
	bad.DefaultDupMean = 0.5
	if _, err := NewWriter(&buf, bad, 1); err == nil {
		t.Fatal("dup mean < 1 accepted")
	}
	bad = DefaultWriterConfig()
	bad.DupMean[xid.MMU] = 0
	if _, err := NewWriter(&buf, bad, 1); err == nil {
		t.Fatal("per-code dup mean < 1 accepted")
	}
	bad = DefaultWriterConfig()
	bad.DupSpacing = 0
	if _, err := NewWriter(&buf, bad, 1); err == nil {
		t.Fatal("zero spacing accepted")
	}
	bad = DefaultWriterConfig()
	bad.NoiseProb = 1.5
	if _, err := NewWriter(&buf, bad, 1); err == nil {
		t.Fatal("bad noise prob accepted")
	}
}

func TestExtractMalformedCounted(t *testing.T) {
	good := FormatLine(xid.Event{Time: xid.Time(at.UnixNano()), Node: "n", GPU: 0, Code: xid.MMU, Detail: "d"}, 1, "x")
	bad := strings.Replace(good, "PCI:0000:07:00", "PCI:ffff:ff", 1)
	input := good + "\n" + bad + "\nnot a log line\n"
	var events int
	st, _, err := Extract(strings.NewReader(input), Options{Workers: 1}, func(xid.Event) error { events++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if events != 1 || st.XIDLines != 1 || st.Malformed != 1 || st.Skipped != 1 || st.Lines != 3 {
		t.Fatalf("stats = %+v events = %d", st, events)
	}
}

func TestExtractCallbackErrorPropagates(t *testing.T) {
	line := FormatLine(xid.Event{Time: xid.Time(at.UnixNano()), Node: "n", GPU: 0, Code: xid.MMU}, 1, "x")
	wantErr := strings.NewReader(line + "\n")
	_, _, err := Extract(wantErr, Options{Workers: 1}, func(xid.Event) error { return bytes.ErrTooLarge })
	if err != bytes.ErrTooLarge {
		t.Fatalf("err = %v", err)
	}
}

func TestDetailNewlineSanitized(t *testing.T) {
	ev := xid.Event{Time: xid.Time(at.UnixNano()), Node: "n", GPU: 0, Code: xid.MMU, Detail: "line1\nline2"}
	line := FormatLine(ev, 1, "x")
	if strings.Contains(line, "\n") {
		t.Fatal("newline leaked into log line")
	}
	back, ok, err := ParseLine(line)
	if !ok || err != nil {
		t.Fatal("sanitized line did not parse")
	}
	if back.Detail != "line1 line2" {
		t.Fatalf("detail = %q", back.Detail)
	}
}
