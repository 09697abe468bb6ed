package syslog_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpuresilience/internal/logfuzz"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

var at = time.Date(2023, 6, 1, 12, 30, 45, 123456000, time.UTC)

// record renders one valid Xid line.
func record(i int) string {
	return syslog.FormatLine(xid.Event{
		Time:   xid.Time(at.Add(time.Duration(i) * time.Second).UnixNano()),
		Node:   fmt.Sprintf("gpub%03d", i%30+1),
		GPU:    int32(i % 4),
		Code:   xid.MMU,
		Detail: fmt.Sprintf("fault at 0x%08x", i),
	}, 1000+i, "python")
}

// extractLenient runs the lenient extractor at a worker count and collects
// the recovered events.
func extractLenient(t *testing.T, input []byte, workers int, opt syslog.LenientOptions) ([]xid.Event, *syslog.IngestionReport, error) {
	t.Helper()
	var events []xid.Event
	_, rep, err := syslog.Extract(bytes.NewReader(input), syslog.Options{Workers: workers, Lenient: &opt}, func(ev xid.Event) error {
		events = append(events, ev)
		return nil
	})
	if rep == nil {
		t.Fatal("nil ingestion report")
	}
	return events, rep, err
}

// TestLenientClassification exercises every taxonomy category once and
// checks both paths count identically.
func TestLenientClassification(t *testing.T) {
	good := record(1)
	lines := []string{
		good,
		"9999-99-99T99:99:99.000000Z" + good[len("2023-06-01T12:30:46.123456Z"):], // bad timestamp
		// Hex-only garbage so the line still matches the Xid shape but the
		// address inversion fails.
		strings.Replace(
			syslog.FormatLine(xid.Event{Time: xid.Time(at.UnixNano()), Node: "n", GPU: 0, Code: xid.MMU, Detail: "d"}, 1, "x"),
			"PCI:0000:07:00", "PCI:dead:beef", 1), // unknown PCI address
		strings.Replace(record(3), ": 31,", ": 9999,", 1), // out-of-range code
		strings.Repeat("x", 10_000),                       // overlong (ceiling 8 KiB)
		"binary \xff\xfe\xfd garbage",                     // non-UTF-8
		syslog.FormatNoise(at, "gpub001", 0),              // noise
		record(4),
	}
	input := []byte(strings.Join(lines, "\n") + "\n")
	opt := syslog.LenientOptions{MaxLineBytes: 8 << 10}

	for _, workers := range []int{1, 4} {
		events, rep, err := extractLenient(t, input, workers, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(events) != 2 || rep.Records != 2 {
			t.Fatalf("workers=%d: recovered %d records, want 2", workers, len(events))
		}
		want := map[syslog.LineClass]int{
			syslog.ClassBadTimestamp: 1,
			syslog.ClassBadPCIAddr:   1,
			syslog.ClassBadXIDCode:   1,
			syslog.ClassOverlong:     1,
			syslog.ClassNonUTF8:      1,
		}
		for class, n := range want {
			if rep.Bad[class] != n {
				t.Errorf("workers=%d: %v = %d, want %d", workers, class, rep.Bad[class], n)
			}
		}
		if rep.BadTotal != 5 || rep.Noise != 1 || rep.Lines != len(lines) {
			t.Fatalf("workers=%d: report %+v", workers, rep)
		}
		if rep.Records+rep.Noise+rep.BadTotal != rep.Lines {
			t.Fatalf("workers=%d: line accounting broken: %+v", workers, rep)
		}
	}
}

// TestLenientMatchesStrictOnCleanLog: on an undamaged log, lenient mode
// recovers exactly the strict stats and events.
func TestLenientMatchesStrictOnCleanLog(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 500; i++ {
		buf.WriteString(record(i))
		buf.WriteByte('\n')
		if i%5 == 0 {
			buf.WriteString(syslog.FormatNoise(at, "gpub001", i))
			buf.WriteByte('\n')
		}
	}
	var strictEvents []xid.Event
	st, err := syslog.ExtractParallel(bytes.NewReader(buf.Bytes()), 1, func(ev xid.Event) error {
		strictEvents = append(strictEvents, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	events, rep, err := extractLenient(t, buf.Bytes(), 1, syslog.LenientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != st.XIDLines || rep.Noise != st.Skipped || rep.Lines != st.Lines || rep.BadTotal != 0 {
		t.Fatalf("lenient %+v vs strict %+v", rep, st)
	}
	if !reflect.DeepEqual(events, strictEvents) {
		t.Fatal("lenient events differ from strict on a clean log")
	}
}

// TestAbsoluteBudgetFailsFast: exceeding -max-bad-lines fails with a typed
// error naming the dominant category, on both paths.
func TestAbsoluteBudgetFailsFast(t *testing.T) {
	var buf bytes.Buffer
	bad := strings.Replace(record(0), ": 31,", ": 9999,", 1)
	for i := 0; i < 200; i++ {
		buf.WriteString(record(i))
		buf.WriteByte('\n')
		buf.WriteString(bad)
		buf.WriteByte('\n')
	}
	for _, workers := range []int{1, 4} {
		_, rep, err := extractLenient(t, buf.Bytes(), workers, syslog.LenientOptions{MaxBadLines: 10})
		var berr *syslog.BudgetError
		if !errors.As(err, &berr) {
			t.Fatalf("workers=%d: err = %v, want *BudgetError", workers, err)
		}
		if berr.Kind != syslog.BudgetLines || berr.Dominant != syslog.ClassBadXIDCode {
			t.Fatalf("workers=%d: %+v", workers, berr)
		}
		if !rep.Budget.Exceeded || rep.Budget.Dominant != syslog.ClassBadXIDCode {
			t.Fatalf("workers=%d: budget status %+v", workers, rep.Budget)
		}
	}
}

// TestFractionBudget: the whole-stream fraction budget is checked at EOF
// and its outcome is worker-count-invariant.
func TestFractionBudget(t *testing.T) {
	var buf bytes.Buffer
	bad := "not-utf8 \xff\xfe line"
	for i := 0; i < 90; i++ {
		buf.WriteString(record(i))
		buf.WriteByte('\n')
	}
	for i := 0; i < 10; i++ {
		buf.WriteString(bad)
		buf.WriteByte('\n')
	}
	for _, workers := range []int{1, 4} {
		// 10% bad: a 5% budget fails, a 50% budget passes.
		_, _, err := extractLenient(t, buf.Bytes(), workers, syslog.LenientOptions{MaxBadFrac: 0.05})
		var berr *syslog.BudgetError
		if !errors.As(err, &berr) || berr.Kind != syslog.BudgetFraction {
			t.Fatalf("workers=%d: err = %v, want fraction BudgetError", workers, err)
		}
		if berr.Dominant != syslog.ClassNonUTF8 {
			t.Fatalf("workers=%d: dominant = %v", workers, berr.Dominant)
		}
		if _, _, err := extractLenient(t, buf.Bytes(), workers, syslog.LenientOptions{MaxBadFrac: 0.5}); err != nil {
			t.Fatalf("workers=%d: 50%% budget failed: %v", workers, err)
		}
	}
}

// TestQuarantineBoundedAndNumbered: the sidecar keeps only the first N
// samples per category, with 1-based stream line numbers.
func TestQuarantineBoundedAndNumbered(t *testing.T) {
	var lines []string
	badAt := []int{3, 5, 8, 13, 21, 34} // 1-based positions of bad lines
	pos := map[int]bool{}
	for _, p := range badAt {
		pos[p] = true
	}
	for i := 1; i <= 40; i++ {
		if pos[i] {
			lines = append(lines, strings.Replace(record(i), ": 31,", ": 9999,", 1))
		} else {
			lines = append(lines, record(i))
		}
	}
	input := []byte(strings.Join(lines, "\n") + "\n")
	for _, workers := range []int{1, 4} {
		_, rep, err := extractLenient(t, input, workers, syslog.LenientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Quarantine) != 4 {
			t.Fatalf("workers=%d: %d quarantined, want 4", workers, len(rep.Quarantine))
		}
		for i, q := range rep.Quarantine {
			if q.Line != badAt[i] || q.Class != syslog.ClassBadXIDCode {
				t.Fatalf("workers=%d: quarantine[%d] = %+v, want line %d", workers, i, q, badAt[i])
			}
			if len(q.Sample) == 0 || len(q.Sample) > 160 {
				t.Fatalf("sample size %d", len(q.Sample))
			}
		}
		if rep.Bad[syslog.ClassBadXIDCode] != len(badAt) {
			t.Fatalf("counted %d, want %d", rep.Bad[syslog.ClassBadXIDCode], len(badAt))
		}
	}
}

// chunkBytes mirrors the parallel extractor's shard size (1 MiB).
const chunkBytes = 1 << 20

// boundaryInput builds > 2 MiB of valid lines with the line that straddles
// the first chunk boundary replaced by mutate(line). It returns the input
// and the 1-based index of the mutated line.
func boundaryInput(t *testing.T, mutate func(string) string) ([]byte, int) {
	t.Helper()
	var buf bytes.Buffer
	lineNo, straddler := 0, 0
	for buf.Len() < 2*chunkBytes+4096 {
		line := record(lineNo)
		lineNo++
		start := buf.Len()
		if start <= chunkBytes && chunkBytes < start+len(line)+1 && straddler == 0 {
			line = mutate(line)
			straddler = lineNo
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
	}
	if straddler == 0 {
		t.Fatal("no line straddled the chunk boundary")
	}
	return buf.Bytes(), straddler
}

// TestChunkBoundaryCorruptLineStrict: a malformed line exactly at the 1 MiB
// chunk edge is counted identically by the strict sequential and sharded
// paths.
func TestChunkBoundaryCorruptLineStrict(t *testing.T) {
	input, _ := boundaryInput(t, func(line string) string {
		return "9999-99-99T99:99:99.000000Z" + line[len("2023-06-01T12:30:45.123456Z"):]
	})
	var seq, par []xid.Event
	stSeq, err := syslog.ExtractParallel(bytes.NewReader(input), 1, func(ev xid.Event) error {
		seq = append(seq, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stPar, err := syslog.ExtractParallel(bytes.NewReader(input), 4, func(ev xid.Event) error {
		par = append(par, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stSeq != stPar || stSeq.Malformed != 1 {
		t.Fatalf("stats diverge: seq %+v par %+v", stSeq, stPar)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("events diverge at chunk boundary")
	}
}

// TestChunkBoundaryCorruptLineLenient: the same boundary line is classified
// and quarantined with an identical report at any worker count.
func TestChunkBoundaryCorruptLineLenient(t *testing.T) {
	input, straddler := boundaryInput(t, func(line string) string {
		return strings.Replace(line, ": 31,", ": 9999,", 1)
	})
	base, baseRep, err := extractLenient(t, input, 1, syslog.LenientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if baseRep.Bad[syslog.ClassBadXIDCode] != 1 || baseRep.Quarantine[0].Line != straddler {
		t.Fatalf("boundary line not classified: %+v", baseRep)
	}
	for _, workers := range []int{4, 16} {
		events, rep, err := extractLenient(t, input, workers, syslog.LenientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, baseRep) {
			t.Fatalf("workers=%d report differs:\n%+v\nvs\n%+v", workers, rep, baseRep)
		}
		if !reflect.DeepEqual(events, base) {
			t.Fatalf("workers=%d events differ", workers)
		}
	}
}

// TestOverlongLineAtChunkBoundary: a line longer than the ceiling that
// begins before the 1 MiB edge is one overlong record everywhere, in both
// strict (fatal, same line number) and lenient (skipped, identical report)
// modes.
func TestOverlongLineAtChunkBoundary(t *testing.T) {
	var buf bytes.Buffer
	before := 0
	for buf.Len() < chunkBytes-512 {
		buf.WriteString(record(before))
		buf.WriteByte('\n')
		before++
	}
	giant := strings.Repeat("g", syslog.MaxLineBytes+4096)
	buf.WriteString(giant)
	buf.WriteByte('\n')
	after := record(before + 1)
	buf.WriteString(after)
	buf.WriteByte('\n')
	input := buf.Bytes()
	wantLine := before + 1

	// Strict: both paths fail, naming the same line.
	_, seqErr := syslog.ExtractParallel(bytes.NewReader(input), 1, func(xid.Event) error { return nil })
	_, parErr := syslog.ExtractParallel(bytes.NewReader(input), 4, func(xid.Event) error { return nil })
	wantMsg := fmt.Sprintf("line %d longer than", wantLine)
	if seqErr == nil || !strings.Contains(seqErr.Error(), wantMsg) {
		t.Fatalf("sequential strict: %v, want mention of %q", seqErr, wantMsg)
	}
	if parErr == nil || !strings.Contains(parErr.Error(), wantMsg) {
		t.Fatalf("parallel strict: %v, want mention of %q", parErr, wantMsg)
	}

	// Lenient: the overlong line is skipped, everything else is recovered,
	// and the report is identical at any worker count.
	base, baseRep, err := extractLenient(t, input, 1, syslog.LenientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if baseRep.Bad[syslog.ClassOverlong] != 1 || baseRep.Records != before+1 {
		t.Fatalf("lenient recovery wrong: %+v", baseRep)
	}
	if q := baseRep.Quarantine[0]; q.Line != wantLine || q.Class != syslog.ClassOverlong {
		t.Fatalf("quarantine %+v, want overlong line %d", q, wantLine)
	}
	for _, workers := range []int{4, 16} {
		events, rep, err := extractLenient(t, input, workers, syslog.LenientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, baseRep) || !reflect.DeepEqual(events, base) {
			t.Fatalf("workers=%d diverges:\n%+v\nvs\n%+v", workers, rep, baseRep)
		}
	}
}

// TestLenientParallelEquivalenceUnderCorruption: for a fuzzer-damaged log,
// report and recovered events are identical at any worker count.
func TestLenientParallelEquivalenceUnderCorruption(t *testing.T) {
	var clean bytes.Buffer
	for i := 0; i < 4000; i++ {
		clean.WriteString(record(i))
		clean.WriteByte('\n')
	}
	corrupted, _, err := logfuzz.Corrupt(clean.Bytes(), logfuzz.Config{
		Seed: 42, Rate: 0.05, OversizeBytes: 16 << 10,
		Parses: func(line []byte) bool {
			_, ok, err := syslog.ParseLine(string(line))
			return ok && err == nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := syslog.LenientOptions{MaxLineBytes: 8 << 10}
	base, baseRep, err := extractLenient(t, corrupted, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if baseRep.BadTotal == 0 {
		t.Fatal("corruption produced no bad lines; test is vacuous")
	}
	for _, workers := range []int{2, 4, 16} {
		events, rep, err := extractLenient(t, corrupted, workers, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, baseRep) {
			t.Fatalf("workers=%d report differs:\n%+v\nvs\n%+v", workers, rep, baseRep)
		}
		if !reflect.DeepEqual(events, base) {
			t.Fatalf("workers=%d events differ", workers)
		}
	}
}

// TestStrictLenientDifferOnlyAsDocumented pins the two modes' only
// differences on a damaged log without overlong lines: both recover the
// same events, and the strict stats are the lenient report with non-UTF-8
// lines moved from corrupt to skipped.
func TestStrictLenientDifferOnlyAsDocumented(t *testing.T) {
	var clean bytes.Buffer
	for i := 0; i < 4000; i++ {
		clean.WriteString(record(i))
		clean.WriteByte('\n')
		if i%9 == 0 {
			clean.WriteString(syslog.FormatNoise(at, "gpub001", i))
			clean.WriteByte('\n')
		}
	}
	damaged, _, err := logfuzz.Corrupt(clean.Bytes(), logfuzz.Config{
		Seed: 7, Rate: 0.05, OversizeBytes: 16 << 10, // far below the 4 MiB ceiling
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		var strictEvents []xid.Event
		st, err := syslog.ExtractParallel(bytes.NewReader(damaged), workers, func(ev xid.Event) error {
			strictEvents = append(strictEvents, ev)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d strict: %v", workers, err)
		}
		events, rep, err := extractLenient(t, damaged, workers, syslog.LenientOptions{})
		if err != nil {
			t.Fatalf("workers=%d lenient: %v", workers, err)
		}
		nonUTF8 := rep.Bad[syslog.ClassNonUTF8]
		if nonUTF8 == 0 || rep.BadTotal == nonUTF8 || rep.Bad[syslog.ClassOverlong] != 0 {
			t.Fatalf("workers=%d: damage mix %+v does not exercise both differences", workers, rep.Bad)
		}
		want := syslog.ExtractStats{
			Lines:     rep.Lines,
			XIDLines:  rep.Records,
			Skipped:   rep.Noise + nonUTF8,
			Malformed: rep.BadTotal - nonUTF8,
		}
		if st != want {
			t.Fatalf("workers=%d: strict %+v, want lenient report projected %+v", workers, st, want)
		}
		if !reflect.DeepEqual(events, strictEvents) {
			t.Fatalf("workers=%d: lenient and strict events differ", workers)
		}
	}
}

// TestGPUIndexRejectsMalformedAddresses: the synthetic-address fallback
// must validate the full shape, not scan a prefix.
func TestGPUIndexRejectsMalformedAddresses(t *testing.T) {
	accept := []struct {
		addr string
		want int
	}{
		{"0000:07:00", 0},
		{"0000:E7:00", 7},
		{"0001:AB:00", 0xAB},
		{"0001:ab:00", 0xAB},
		{"0001:00:00", 0},
	}
	for _, tc := range accept {
		got, ok := syslog.GPUIndex(tc.addr)
		if !ok || got != tc.want {
			t.Errorf("GPUIndex(%q) = %d,%v, want %d,true", tc.addr, got, ok, tc.want)
		}
	}
	reject := []string{
		"",
		"0001:07:00garbage", // trailing garbage after a valid prefix
		"0001:7:00",         // short device width
		"0001:ABC:00",       // overlong device field
		"0001:GG:00",        // non-hex device
		"0001:07:01",        // wrong function
		"0001:07:0",         // truncated function
		"0002:07:00",        // unknown domain
		"0001:07",           // truncated address
		" 0001:07:00",       // leading whitespace
		"0001:07:00 ",       // trailing whitespace
		"dead:beef",
	}
	for _, addr := range reject {
		if got, ok := syslog.GPUIndex(addr); ok {
			t.Errorf("GPUIndex(%q) accepted as %d", addr, got)
		}
	}
}

// TestFormatLineStripsCarriageReturns: a lone \r in the detail must not
// survive into the rendered line, and the record must round-trip.
func TestFormatLineStripsCarriageReturns(t *testing.T) {
	ev := xid.Event{
		Time: xid.Time(at.UnixNano()), Node: "gpub042", GPU: 2, Code: xid.NVLink,
		Detail: "link 1-2\rCRC failure\r\nretrying",
	}
	line := syslog.FormatLine(ev, 1, "proc")
	if strings.ContainsAny(line, "\r\n") {
		t.Fatalf("control bytes survived into the line: %q", line)
	}
	back, ok, err := syslog.ParseLine(line)
	if !ok || err != nil {
		t.Fatalf("round trip parse failed: ok=%v err=%v", ok, err)
	}
	if back.Detail != "link 1-2 CRC failure  retrying" {
		t.Fatalf("detail = %q", back.Detail)
	}
	if back.Time != ev.Time || back.Node != ev.Node || back.GPU != ev.GPU || back.Code != ev.Code {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

// TestParseLineRejectsOutOfRangeCode: codes beyond the driver's table are
// classified corruption, not new error types.
func TestParseLineRejectsOutOfRangeCode(t *testing.T) {
	good := record(0)
	for _, repl := range []string{": 1024,", ": 99999,", ": 184467440737095516151,"} {
		bad := strings.Replace(good, ": 31,", repl, 1)
		_, _, err := syslog.ParseLine(bad)
		var pe *syslog.ParseError
		if !errors.As(err, &pe) || pe.Class != syslog.ClassBadXIDCode {
			t.Errorf("ParseLine(%q): err = %v, want out-of-range code ParseError", repl, err)
		}
	}
	// The boundary value itself is accepted.
	if _, ok, err := syslog.ParseLine(strings.Replace(good, ": 31,", ": 1023,", 1)); !ok || err != nil {
		t.Fatalf("code 1023 rejected: ok=%v err=%v", ok, err)
	}
}
