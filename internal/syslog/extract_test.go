package syslog

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpuresilience/internal/intern"
	"gpuresilience/internal/xid"
)

// buildLog emits a messy raw log — duplicates, noise, malformed lines — and
// returns the bytes.
func buildLog(t *testing.T, events int, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, DefaultWriterConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	codes := []xid.Code{xid.MMU, xid.NVLink, xid.DBE, xid.GSPError}
	for i := 0; i < events; i++ {
		ev := xid.Event{
			Time:   xid.Time(base.Add(time.Duration(i) * 7 * time.Second).UnixNano()),
			Node:   []string{"gpub001", "gpub002", "gpub003"}[i%3],
			GPU:    int32(i % 4),
			Code:   codes[i%len(codes)],
			Detail: "detail",
		}
		if _, err := w.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
		if i%97 == 0 { // sprinkle malformed Xid-shaped lines
			buf.WriteString("2023-06-01T00:00:00.000000Z gpub001 kernel: NVRM: Xid (PCI:dead:beef): 31, pid=1, name=x, d\n")
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func collectSequential(t *testing.T, data []byte) ([]xid.Event, ExtractStats) {
	t.Helper()
	var events []xid.Event
	st, err := ExtractParallel(bytes.NewReader(data), 1, func(ev xid.Event) error {
		events = append(events, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return events, st
}

// Property: the chunked path yields the same event sequence and stats as
// the line-at-a-time scan, for several worker counts, with and without a
// trailing newline.
func TestExtractParallelEquivalence(t *testing.T) {
	data := buildLog(t, 3000, 1)
	for _, trim := range []bool{false, true} {
		in := data
		if trim {
			in = bytes.TrimSuffix(in, []byte{'\n'})
		}
		wantEvents, wantStats := collectSequential(t, in)
		for _, workers := range []int{2, 3, 8} {
			var got []xid.Event
			st, err := ExtractParallel(bytes.NewReader(in), workers, func(ev xid.Event) error {
				got = append(got, ev)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if st != wantStats {
				t.Fatalf("workers=%d trim=%v: stats %+v, want %+v", workers, trim, st, wantStats)
			}
			if len(got) != len(wantEvents) {
				t.Fatalf("workers=%d trim=%v: %d events, want %d", workers, trim, len(got), len(wantEvents))
			}
			for i := range got {
				if got[i] != wantEvents[i] {
					t.Fatalf("workers=%d trim=%v: event %d differs:\n got %+v\nwant %+v",
						workers, trim, i, got[i], wantEvents[i])
				}
			}
		}
	}
}

// The chunker must handle inputs around the chunk boundary: a log bigger
// than one chunk, and lines straddling the boundary.
func TestExtractParallelMultiChunk(t *testing.T) {
	line := FormatLine(xid.Event{
		Time: xid.Time(time.Date(2023, 6, 1, 12, 0, 0, 0, time.UTC).UnixNano()),
		Node: "gpub001", GPU: 0, Code: xid.MMU, Detail: strings.Repeat("x", 900),
	}, 1, "p")
	n := (2*defaultChunkBytes)/len(line) + 10
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	count := 0
	st, err := ExtractParallel(strings.NewReader(sb.String()), 4, func(xid.Event) error {
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n || st.Lines != n || st.XIDLines != n {
		t.Fatalf("count=%d stats=%+v, want %d lines", count, st, n)
	}
}

// TestExtractBatchesMatchesExtract: the batches' concatenation is Extract's
// event stream, with the same stats, at one worker (full-capacity blocks,
// all full but the last) and over several chunks at four.
func TestExtractBatchesMatchesExtract(t *testing.T) {
	data := buildLog(t, 6000, 3)
	data = append(data, buildPoolLog(t, 3000)...) // past one chunk
	want, wantSt := collectSequential(t, data)
	for _, workers := range []int{1, 4} {
		var got []xid.Event
		var batches [][]xid.Event
		st, _, err := ExtractBatches(bytes.NewReader(data), Options{Workers: workers}, func(b []xid.Event) error {
			batches = append(batches, b)
			got = append(got, b...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if st != wantSt || !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: %d events, stats %+v; want %d, %+v", workers, len(got), st, len(want), wantSt)
		}
		if len(batches) < 2 {
			t.Fatalf("workers=%d: %d batches, want several", workers, len(batches))
		}
		for i, b := range batches {
			if len(b) == 0 {
				t.Fatalf("workers=%d: batch %d is empty", workers, i)
			}
			if workers == 1 && (cap(b) != blockLen || i < len(batches)-1 && len(b) != blockLen) {
				t.Fatalf("block %d of %d: len %d cap %d, want full %d-event blocks", i, len(batches), len(b), cap(b), blockLen)
			}
		}
	}
}

// TestParseChunkSizesForRecords: a chunk's event slice is Stage I's output
// and outlives the chunk, so it is sized by the chunk's Xid literals, not
// its lines. A chunk that is mostly noise gets room for its records only.
func TestParseChunkSizesForRecords(t *testing.T) {
	base := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	var buf bytes.Buffer
	for i := 0; i < 1000; i++ {
		at := base.Add(time.Duration(i) * time.Second)
		if i%100 == 7 {
			buf.WriteString(FormatLine(xid.Event{Time: xid.Time(at.UnixNano()), Node: "gpub001", Code: xid.MMU, Detail: "fault"}, i, "python"))
		} else {
			buf.WriteString(FormatNoise(at, "gpub001", i))
		}
		buf.WriteByte('\n')
	}
	data := buf.Bytes()
	res := parseChunk(chunk{data: data}, newReportState(nil).fresh(), intern.New())
	lits := bytes.Count(data, []byte(litKernel))
	if lits != 10 || len(res.events) != lits || cap(res.events) != lits {
		t.Fatalf("%d Xid literals, %d events in a slice of capacity %d; want 10 of each", lits, len(res.events), cap(res.events))
	}
}

func TestExtractParallelCallbackError(t *testing.T) {
	data := buildLog(t, 500, 3)
	boom := errors.New("boom")
	calls := 0
	_, err := ExtractParallel(bytes.NewReader(data), 4, func(xid.Event) error {
		calls++
		if calls == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 10 {
		t.Fatalf("callback ran %d times after error", calls)
	}
}

// Regression: a pathological unterminated line must fail loudly with its
// line number on both the sequential and the parallel path, not stall or
// silently truncate the scan.
func TestExtractRejectsOverlongLine(t *testing.T) {
	good := FormatLine(xid.Event{
		Time: xid.Time(time.Date(2023, 6, 1, 12, 0, 0, 0, time.UTC).UnixNano()),
		Node: "gpub001", GPU: 0, Code: xid.MMU, Detail: "d",
	}, 1, "p")
	input := good + "\n" + strings.Repeat("A", MaxLineBytes+1) + "\n" + good + "\n"

	_, seqErr := ExtractParallel(strings.NewReader(input), 1, func(xid.Event) error { return nil })
	if seqErr == nil {
		t.Fatal("sequential Extract accepted an overlong line")
	}
	if !strings.Contains(seqErr.Error(), "line 2") {
		t.Fatalf("sequential error lacks line context: %v", seqErr)
	}

	_, parErr := ExtractParallel(strings.NewReader(input), 4, func(xid.Event) error { return nil })
	if parErr == nil {
		t.Fatal("parallel Extract accepted an overlong line")
	}
	if !strings.Contains(parErr.Error(), "line 2") {
		t.Fatalf("parallel error lacks line context: %v", parErr)
	}
}

// A failing reader surfaces its error with line context instead of being
// swallowed.
func TestExtractReadErrorContext(t *testing.T) {
	brokenAfter := FormatLine(xid.Event{
		Time: xid.Time(time.Date(2023, 6, 1, 12, 0, 0, 0, time.UTC).UnixNano()),
		Node: "gpub001", GPU: 0, Code: xid.MMU, Detail: "d",
	}, 1, "p") + "\n"
	fail := errors.New("disk gone")
	for name, extract := range map[string]func() (ExtractStats, error){
		"sequential": func() (ExtractStats, error) {
			return ExtractParallel(&failingReader{data: []byte(brokenAfter), err: fail}, 1, discard)
		},
		"parallel": func() (ExtractStats, error) {
			return ExtractParallel(&failingReader{data: []byte(brokenAfter), err: fail}, 4, discard)
		},
	} {
		_, err := extract()
		if !errors.Is(err, fail) {
			t.Fatalf("%s: err = %v, want wrapped disk error", name, err)
		}
		if !strings.Contains(err.Error(), "line") {
			t.Fatalf("%s: error lacks line context: %v", name, err)
		}
	}
}

func discard(xid.Event) error { return nil }

// failingReader yields its data, then an error.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}
