package logfuzz

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// corpus builds a clean raw log of n Xid lines with interleaved noise.
func corpus(n int) []byte {
	var buf bytes.Buffer
	base := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	codes := []xid.Code{xid.MMU, xid.DBE, xid.NVLink, xid.GSPError, xid.UncontainedMem}
	for i := 0; i < n; i++ {
		ev := xid.Event{
			Time:   xid.Time(base.Add(time.Duration(i) * time.Minute).UnixNano()),
			Node:   fmt.Sprintf("gpub%03d", i%20+1),
			GPU:    int32(i % 4),
			Code:   codes[i%len(codes)],
			Detail: fmt.Sprintf("detail %d", i),
		}
		buf.WriteString(string(syslog.AppendLine(nil, ev, 1000+i, "python")))
		buf.WriteByte('\n')
		if i%7 == 0 {
			buf.WriteString(string(syslog.AppendNoise(nil, ev.Time.Time(), ev.Node, i)))
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

// parsesAsRecord is the syslog-aware predicate the recovery tests inject.
func parsesAsRecord(line []byte) bool {
	_, ok, err := syslog.ParseLine(string(line))
	return ok && err == nil
}

func testConfig(seed uint64) Config {
	return Config{
		Seed:          seed,
		Rate:          0.10,
		OversizeBytes: 8 << 10,
		Parses:        parsesAsRecord,
	}
}

func TestDeterminism(t *testing.T) {
	in := corpus(400)
	out1, rep1, err := Corrupt(in, testConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	out2, rep2, err := Corrupt(in, testConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1, out2) {
		t.Fatal("same seed produced different corruption")
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("same seed produced different reports:\n%+v\nvs\n%+v", rep1, rep2)
	}
	out3, _, err := Corrupt(in, testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out1, out3) {
		t.Fatal("different seeds produced identical corruption")
	}
}

// TestUntouchedLinesSurviveIntact: every line not reported touched must
// appear byte-identical in the corrupted stream (possibly relocated), and
// every corrupted-stream line that parses as a record must be one of them.
func TestUntouchedLinesSurviveIntact(t *testing.T) {
	in := corpus(600)
	out, rep, err := Corrupt(in, testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Touched) == 0 || rep.Inserted == 0 {
		t.Fatalf("corruption too tame to test: %+v", rep.ByOp)
	}
	outCount := map[string]int{}
	for _, line := range splitLines(out) {
		outCount[string(line)]++
	}
	touched := rep.TouchedSet()
	survCount := map[string]int{}
	for i, line := range splitLines(in) {
		if touched[i] {
			continue
		}
		survCount[string(line)]++
		if outCount[string(line)] < 1 {
			t.Fatalf("untouched line %d missing from corrupted stream: %q", i, line)
		}
	}
	// No corrupted-stream line may parse as a record beyond the surviving
	// multiset: injected/damaged lines are guaranteed unparseable.
	for _, line := range splitLines(out) {
		if parsesAsRecord(line) {
			if survCount[string(line)] == 0 {
				t.Fatalf("damaged/injected line parses as a record: %q", line)
			}
			survCount[string(line)]--
		}
	}
}

func TestSurvivingMatchesReport(t *testing.T) {
	in := corpus(300)
	_, rep, err := Corrupt(in, testConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	surv := Surviving(in, rep)
	want := len(splitLines(in)) - len(rep.Touched)
	if got := len(splitLines(surv)); got != want {
		t.Fatalf("surviving lines = %d, want %d", got, want)
	}
	// Surviving must be a subsequence of the original input's lines.
	orig := splitLines(in)
	j := 0
	for _, line := range splitLines(surv) {
		for j < len(orig) && !bytes.Equal(orig[j], line) {
			j++
		}
		if j == len(orig) {
			t.Fatalf("surviving line not in original order: %q", line)
		}
		j++
	}
}

func TestAllOpsFire(t *testing.T) {
	in := corpus(3000)
	_, rep, err := Corrupt(in, Config{Seed: 5, Rate: 0.3, OversizeBytes: 8 << 10, Parses: parsesAsRecord})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range AllOps() {
		if rep.ByOp[op] == 0 {
			t.Errorf("op %v never fired: %v", op, rep.ByOp)
		}
	}
}

func TestRangesWithinInput(t *testing.T) {
	in := corpus(500)
	_, rep, err := Corrupt(in, testConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	for _, rg := range rep.Ranges {
		if rg.Off < 0 || rg.Len <= 0 || rg.Off+rg.Len > len(in) {
			t.Fatalf("range %+v outside input of %d bytes", rg, len(in))
		}
		if rg.Off < last {
			t.Fatalf("ranges not sorted: %+v", rep.Ranges)
		}
		last = rg.Off
	}
}

func TestEdgeInputs(t *testing.T) {
	for _, in := range [][]byte{nil, []byte("single line no newline"), []byte("\n"), []byte("a\nb")} {
		out, rep, err := Corrupt(in, Config{Seed: 1, Rate: 0})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("rate 0 mutated input %q -> %q", in, out)
		}
		if len(rep.Touched) != 0 {
			t.Fatalf("rate 0 touched lines: %+v", rep)
		}
	}
}
