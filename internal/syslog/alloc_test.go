package syslog

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpuresilience/internal/intern"
	"gpuresilience/internal/xid"
)

// Allocation budgets for the Stage I hot path. These are hard ceilings, not
// aspirations: a regression here is a correctness bug for the perf PR even
// when the benchmarks still pass on a fast machine.

func TestParseLineAllocBudget(t *testing.T) {
	line := "2023-06-01T12:30:45.123456Z gpub001 kernel: NVRM: Xid (PCI:0000:27:00): 79, pid=1234, name=python, GPU has fallen off the bus"
	var ev xid.Event
	var ok bool
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		ev, ok, err = ParseLine(line)
	})
	if !ok || err != nil {
		t.Fatalf("ParseLine failed: ok=%v err=%v", ok, err)
	}
	if ev.Code != 79 || ev.Node != "gpub001" || ev.GPU != 1 {
		t.Fatalf("unexpected event %+v", ev)
	}
	// The event's strings are substrings of the input line, and the event
	// itself stays on the stack.
	if allocs != 0 {
		t.Fatalf("ParseLine allocs = %v, want 0", allocs)
	}
}

func TestParseLineBytesNoiseZeroAlloc(t *testing.T) {
	noise := [][]byte{
		[]byte(FormatNoise(time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC), "gpub001", 0)),
		[]byte("short line"),
		[]byte(""),
		[]byte("2023-06-01T12:30:45.123456Z gpub001 kernel: EXT4-fs: mounted"),
	}
	in := intern.New()
	allocs := testing.AllocsPerRun(200, func() {
		for _, line := range noise {
			if _, ok, err := parseLine(line, in); ok || err != nil {
				t.Fatalf("noise line classified as record: %q", line)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("parseLine noise allocs = %v, want 0", allocs)
	}
}

func TestParseLineBytesInternedZeroAlloc(t *testing.T) {
	line := []byte("2023-06-01T12:30:45.123456Z gpub001 kernel: NVRM: Xid (PCI:0000:27:00): 79, pid=1234, name=python, GPU has fallen off the bus")
	in := intern.New()
	// Warm the interner: after the first parse, node and detail are cached.
	if _, ok, err := parseLine(line, in); !ok || err != nil {
		t.Fatalf("warmup parse failed: ok=%v err=%v", ok, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok, err := parseLine(line, in); !ok || err != nil {
			t.Fatal("parse failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state parseLine allocs = %v, want 0", allocs)
	}
	st := in.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("interner saw no traffic: %+v", st)
	}
}

// buildPoolLog renders a log big enough to span several pooled chunks, with
// line boundaries landing unpredictably relative to chunk edges.
func buildPoolLog(tb testing.TB, lines int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	base := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	pad := strings.Repeat("x", 900) // long details force chunk turnover
	for i := 0; i < lines; i++ {
		at := base.Add(time.Duration(i) * 250 * time.Millisecond)
		if i%7 == 3 {
			buf.WriteString(FormatNoise(at, fmt.Sprintf("gpub%03d", i%16), i))
		} else {
			ev := xid.Event{
				Time: xid.Time(at.UnixNano()), Node: fmt.Sprintf("gpub%03d", i%16), GPU: int32(i % 8),
				Code: xid.Code(31 + i%5), Detail: fmt.Sprintf("detail %d %s", i%3, pad),
			}
			buf.WriteString(FormatLine(ev, 1000+i, "python"))
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestPooledChunkReuse runs the parallel extractors twice over a multi-chunk
// input so the second pass parses out of recycled buffers, and holds both
// passes to the sequential result. Run under -race in CI, this is the
// ownership proof for the chunk pool: a worker returning a buffer it still
// aliases, or a producer reusing one a worker holds, trips the detector.
func TestPooledChunkReuse(t *testing.T) {
	data := buildPoolLog(t, 8000) // ~8 MiB: several defaultChunkBytes chunks
	var wantEvents []xid.Event
	wantStats, err := ExtractParallel(bytes.NewReader(data), 1, func(ev xid.Event) error {
		wantEvents = append(wantEvents, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		var got []xid.Event
		st, err := ExtractParallel(bytes.NewReader(data), 4, func(ev xid.Event) error {
			got = append(got, ev)
			return nil
		})
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if st != wantStats {
			t.Fatalf("pass %d stats = %+v, want %+v", pass, st, wantStats)
		}
		if !reflect.DeepEqual(got, wantEvents) {
			t.Fatalf("pass %d events diverge from sequential", pass)
		}
	}
}

func TestPooledChunkReuseLenient(t *testing.T) {
	data := buildPoolLog(t, 8000)
	opt := Options{Workers: 1, Lenient: &LenientOptions{}}
	var wantEvents []xid.Event
	_, wantRep, err := Extract(bytes.NewReader(data), opt, func(ev xid.Event) error {
		wantEvents = append(wantEvents, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		var got []xid.Event
		opt.Workers = 4
		_, rep, err := Extract(bytes.NewReader(data), opt, func(ev xid.Event) error {
			got = append(got, ev)
			return nil
		})
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if !reflect.DeepEqual(rep, wantRep) {
			t.Fatalf("pass %d report = %+v, want %+v", pass, rep, wantRep)
		}
		if !reflect.DeepEqual(got, wantEvents) {
			t.Fatalf("pass %d events diverge from sequential", pass)
		}
	}
}

// TestChunkBufReusedForLongerCarry: the chunked reader asks for a buffer of
// one read plus the carried tail, and the tail varies from read to read. A
// buffer back in the pool must serve a next read whose carry is up to
// scanBufBytes longer than the one it was first made for, or most reads
// allocate a fresh buffer. Retried a few times, since a Get after a Put
// may miss when the goroutine changes processors in between.
func TestChunkBufReusedForLongerCarry(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for attempt := 0; attempt < 10; attempt++ {
		bp := getChunkBuf(defaultChunkBytes)
		putChunkBuf(bp)
		if getChunkBuf(scanBufBytes+defaultChunkBytes) == bp {
			return
		}
	}
	t.Fatal("a pooled chunk buffer was not reused for a carry scanBufBytes longer")
}

// TestExtractAllocStats checks that the parallel alloc totals are
// deterministic at a fixed worker count and that interning is actually
// deduplicating (hits dominate on a repetitive log).
func TestExtractAllocStats(t *testing.T) {
	data := buildPoolLog(t, 4000)
	run := func(workers int) intern.Stats {
		var st intern.Stats
		if _, _, err := Extract(bytes.NewReader(data), Options{Workers: workers, Alloc: &st},
			func(xid.Event) error { return nil }); err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(4), run(4)
	if a != b {
		t.Fatalf("alloc stats not deterministic at fixed workers: %+v vs %+v", a, b)
	}
	if a.Hits == 0 || a.Misses == 0 {
		t.Fatalf("interner saw no traffic: %+v", a)
	}
}

// TestScanAllocsIndependentOfLength: the line-at-a-time scan parses every
// line in place, in both modes, so a clean log allocates the same at 1k and
// at 10k lines — per-run set-up and interner misses only, nothing per line.
func TestScanAllocsIndependentOfLength(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	base := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	build := func(lines int) []byte {
		var buf bytes.Buffer
		for i := 0; i < lines; i++ {
			at := base.Add(time.Duration(i) * time.Second)
			if i%5 == 0 {
				buf.WriteString(FormatNoise(at, "gpub001", i))
			} else {
				buf.WriteString(FormatLine(xid.Event{Time: xid.Time(at.UnixNano()), Node: fmt.Sprintf("gpub%03d", i%8),
					GPU: int32(i % 4), Code: xid.MMU, Detail: "fault"}, 1000+i, "python"))
			}
			buf.WriteByte('\n')
		}
		return buf.Bytes()
	}
	small, large := build(1000), build(10000)
	for _, lenient := range []*LenientOptions{nil, {}} {
		opt := Options{Workers: 1, Lenient: lenient}
		allocs := func(data []byte) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, _, err := Extract(bytes.NewReader(data), opt, discard); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a, b := allocs(small), allocs(large); a != b {
			t.Errorf("lenient=%v: %v allocs at 1k lines, %v at 10k", lenient != nil, a, b)
		}
	}
}
