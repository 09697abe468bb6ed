package syslog

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"gpuresilience/internal/intern"
	"gpuresilience/internal/logfuzz"
	"gpuresilience/internal/xid"
)

// The historical Stage I implementation, kept verbatim as the differential
// oracle for the hand-rolled byte parser. If the two ever classify a line
// differently — match/no-match, event fields, or ParseError class — the
// rewrite changed semantics, not just speed.

var xidLineOracleRE = regexp.MustCompile(
	`^(\S+) (\S+) kernel: NVRM: Xid \(PCI:([0-9A-Fa-f:]+)\): (\d+), pid=\d+, name=\S*, (.*)$`)

var syntheticPCIOracleRE = regexp.MustCompile(`^0001:([0-9A-Fa-f]{2}):00$`)

func gpuIndexOracle(addr string) (int, bool) {
	for i := range pciBases {
		if PCIAddr(i) == addr {
			return i, true
		}
	}
	if m := syntheticPCIOracleRE.FindStringSubmatch(addr); m != nil {
		bus, err := strconv.ParseUint(m[1], 16, 8)
		if err != nil {
			return 0, false
		}
		return int(bus), true
	}
	return 0, false
}

func parseLineOracle(line string) (xid.Event, bool, error) {
	m := xidLineOracleRE.FindStringSubmatch(line)
	if m == nil {
		return xid.Event{}, false, nil
	}
	ts, err := time.Parse(timeLayout, m[1])
	if err == nil && (ts.Before(time.Unix(0, math.MinInt64)) || ts.After(time.Unix(0, math.MaxInt64))) {
		// The event record holds int64 Unix nanoseconds.
		err = &xid.RangeError{T: ts}
	}
	if err != nil {
		return xid.Event{}, false, &ParseError{Class: ClassBadTimestamp, field: m[1], cause: err}
	}
	gpu, found := gpuIndexOracle(m[3])
	if !found {
		return xid.Event{}, false, &ParseError{Class: ClassBadPCIAddr, field: m[3]}
	}
	code, err := strconv.Atoi(m[4])
	if err != nil || code > maxXIDCode {
		return xid.Event{}, false, &ParseError{Class: ClassBadXIDCode, field: m[4], cause: err}
	}
	return xid.Event{Time: xid.Time(ts.UnixNano()), Node: m[2], GPU: int32(gpu), Code: xid.Code(code), Detail: m[5]}, true, nil
}

// oracleCorpus is the crafted line-class corpus: well-formed lines, each
// lenient corruption class, non-Xid noise, and the whitespace/UTF-8 corner
// cases where RE2 semantics are easiest to get wrong.
func oracleCorpus() []string {
	const ts = "2023-06-01T12:30:45.123456Z"
	lines := []string{
		// Well-formed, every real slot plus synthetic addresses.
		ts + " gpub001 kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1234, name=python, GPU has fallen off the bus",
		ts + " gpub002 kernel: NVRM: Xid (PCI:0000:A7:00): 31, pid=1, name=x, detail",
		ts + " n kernel: NVRM: Xid (PCI:0001:0a:00): 13, pid=99999, name=, ",
		ts + " n kernel: NVRM: Xid (PCI:0001:FF:00): 1023, pid=0, name=a,b,c, trailing detail",
		// time.Parse leniencies the fast path must defer on, not reject.
		"2023-06-01T1:30:45.123456Z n kernel: NVRM: Xid (PCI:0000:27:00): 63, pid=5, name=p, one-digit hour",
		"2023-06-01T12:30:45,123456Z n kernel: NVRM: Xid (PCI:0000:27:00): 63, pid=5, name=p, comma fraction",
		"2024-02-29T23:59:59.999999Z n kernel: NVRM: Xid (PCI:0000:47:00): 48, pid=5, name=p, leap day",
		// Bad timestamp.
		"2023-02-29T00:00:00.000000Z n kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p, non-leap feb 29",
		"garbage n kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p, d",
		"2023-06-01T12:30:45.123456+00:00 n kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p, zone",
		// Timestamps at and past the ends of the int64-nanosecond range.
		"1677-09-21T00:12:43.145225Z n kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p, first in range",
		"1677-09-21T00:12:43.145224Z n kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p, just before range",
		"2262-04-11T23:47:16.854775Z n kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p, last in range",
		"2262-04-11T23:47:16.854776Z n kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p, just past range",
		"2300-01-01T00:00:00.000000Z n kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p, year 2300",
		"1600-01-01T00:00:00.000000Z n kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p, year 1600",
		"2300-01-01T0:00:00.000000Z n kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p, slow path 2300",
		// Bad PCI address.
		ts + " n kernel: NVRM: Xid (PCI:0000:99:00): 79, pid=1, name=p, unknown slot",
		ts + " n kernel: NVRM: Xid (PCI:0000:a7:00): 79, pid=1, name=p, lowercase real slot",
		ts + " n kernel: NVRM: Xid (PCI:0001:a7:00): 79, pid=1, name=p, lowercase synthetic ok",
		ts + " n kernel: NVRM: Xid (PCI:::::): 79, pid=1, name=p, colons",
		ts + " n kernel: NVRM: Xid (PCI:0000:07:0): 79, pid=1, name=p, short function",
		// Bad XID code.
		ts + " n kernel: NVRM: Xid (PCI:0000:07:00): 1024, pid=1, name=p, just past cap",
		ts + " n kernel: NVRM: Xid (PCI:0000:07:00): 99999999999999999999, pid=1, name=p, overflow",
		// Structural noise (shape misses).
		ts + " gpub001 kernel: EXT4-fs (nvme0n1p2): mounted filesystem",
		ts + " gpub001 kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=x, name=p, bad pid",
		ts + " gpub001 kernel: NVRM: Xid (PCI:0000:07:00): 79, name=p, missing pid",
		ts + " gpub001 kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p no comma-space",
		ts + " gpub001 kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p,",
		ts + "  double space kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p, d",
		" leading space",
		"",
		" ",
		"kernel: NVRM: Xid",
		// RE2 whitespace corners: \t \f \r are \s (token breakers that fail
		// the ' ' literal), \v (0x0B) is \S and belongs to tokens.
		ts + "\tn kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p, tab after ts",
		ts + " n\fkernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p, formfeed",
		ts + " n\vx kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p, vtab in node",
		ts + " n kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p,\tdetail tab terminator",
		ts + " n kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p, detail with\ttab and trailing\r",
		// Invalid UTF-8 in tokens and detail: \S under RE2.
		ts + " n\xff\xfe kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p, binary node",
		ts + " n kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p, binary detail \xff\xfe\x00",
		"\xff\xfe binary line \x00",
		// Embedded newlines: the anchored pattern can never match.
		ts + " n kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p, split\ndetail",
		"\n",
		ts + " n kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p, d\n",
	}
	// The real writer's output for every code path it has.
	base := time.Date(2023, 6, 1, 12, 30, 45, 123456000, time.UTC)
	for i := 0; i < 10; i++ {
		ev := xid.Event{Time: xid.Time(base.UnixNano()), Node: fmt.Sprintf("gpub%03d", i), GPU: int32(i), Code: xid.Code(i * 13), Detail: "detail text"}
		lines = append(lines, FormatLine(ev, 1000+i, "python"))
		lines = append(lines, FormatNoise(base, "gpub001", i))
	}
	return lines
}

// checkEquivalence holds ParseLine, parseLine over the line's bytes, and
// the regex oracle to identical classification of one line.
func checkEquivalence(t *testing.T, line string) {
	t.Helper()
	oev, ook, oerr := parseLineOracle(line)
	ev, ok, err := ParseLine(line)
	if ok != ook {
		t.Fatalf("ok diverges from oracle on %q: got %v, oracle %v", line, ok, ook)
	}
	if ev != oev {
		t.Fatalf("event diverges from oracle on %q:\n got %+v\nwant %+v", line, ev, oev)
	}
	compareParseErr(t, line, "ParseLine", err, oerr)

	// CountLine, the streaming engine's step, counts the line as the oracle
	// classifies it, over either type, a line holding a newline included.
	// It drops a trailing CR first, which the oracle does not.
	if !strings.HasSuffix(line, "\r") {
		want := ExtractStats{Lines: 1, XIDLines: 1}
		if !ook {
			want = ExtractStats{Lines: 1, Skipped: 1}
		}
		if oerr != nil {
			want = ExtractStats{Lines: 1, Malformed: 1}
		}
		var st, bst ExtractStats
		var cev, bcev xid.Event
		rec, brec := CountLine(&st, line, &cev), CountLine(&bst, []byte(line), &bcev)
		if st != want || bst != want || rec && cev != oev || brec && bcev != oev {
			t.Fatalf("CountLine diverges from oracle on %q: counts %+v and %+v over bytes, want %+v",
				line, st, bst, want)
		}
	}

	// The byte parser sees line-split input only, which never contains \n.
	if strings.IndexByte(line, '\n') >= 0 {
		return
	}
	bev, bok, berr := parseLine([]byte(line), intern.New())
	if bok != ook || bev != oev {
		t.Fatalf("parseLine over bytes diverges from oracle on %q:\n got %+v ok=%v\nwant %+v ok=%v",
			line, bev, bok, oev, ook)
	}
	compareParseErr(t, line, "parseLine over bytes", berr, oerr)
}

func compareParseErr(t *testing.T, line, who string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s error presence diverges on %q: got %v, oracle %v", who, line, got, want)
	}
	if got == nil {
		return
	}
	gpe, gok := got.(*ParseError)
	wpe, wok := want.(*ParseError)
	if !gok || !wok {
		t.Fatalf("%s returned non-ParseError on %q: got %T, oracle %T", who, line, got, want)
	}
	if gpe.Class != wpe.Class {
		t.Fatalf("%s class diverges on %q: got %v, oracle %v", who, line, gpe.Class, wpe.Class)
	}
	if gpe.Error() != wpe.Error() {
		t.Fatalf("%s message diverges on %q:\n got %q\nwant %q", who, line, gpe.Error(), wpe.Error())
	}
}

func TestParseLineMatchesOracle(t *testing.T) {
	for _, line := range oracleCorpus() {
		checkEquivalence(t, line)
	}
}

func TestGPUIndexMatchesOracle(t *testing.T) {
	addrs := []string{
		"0000:07:00", "0000:27:00", "0000:A7:00", "0000:E7:00",
		"0000:a7:00", "0000:99:00", "0001:00:00", "0001:ff:00", "0001:FF:00",
		"0001:7:00", "0002:07:00", "0000:07:00 ", "", ":", "0001:zz:00",
		"0000:07:0000", "0001:ab:000",
	}
	for i := -2; i < 12; i++ {
		addrs = append(addrs, PCIAddr(i))
	}
	for _, a := range addrs {
		gi, gok := GPUIndex(a)
		oi, ook := gpuIndexOracle(a)
		if gi != oi || gok != ook {
			t.Errorf("GPUIndex(%q) = (%d,%v), oracle (%d,%v)", a, gi, gok, oi, ook)
		}
	}
}

// FuzzParseLineEquivalence is the differential fuzz target of the tentpole:
// the byte parser and the regex oracle must classify every input
// identically — same event, same ok, same *ParseError class and message.
// Seeds cover every line class plus logfuzz-damaged realistic logs.
func FuzzParseLineEquivalence(f *testing.F) {
	for _, line := range oracleCorpus() {
		f.Add(line)
	}
	// Lines of a deterministically fuzzer-damaged log, like the extractor
	// fuzz targets use: realistic corruption shapes, not raw noise.
	var clean bytes.Buffer
	base := time.Date(2023, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 40; i++ {
		ev := xid.Event{Time: xid.Time(base.Add(time.Duration(i) * time.Second).UnixNano()), Node: "gpub001",
			GPU: int32(i % 4), Code: xid.Code(31 + i%3), Detail: "mmu fault"}
		clean.WriteString(FormatLine(ev, 4242, "python"))
		clean.WriteByte('\n')
	}
	for _, seed := range []uint64{1, 2, 3} {
		damaged, _, err := logfuzz.Corrupt(clean.Bytes(), logfuzz.Config{
			Seed: seed, Rate: 0.2, OversizeBytes: 4 << 10,
		})
		if err != nil {
			f.Fatal(err)
		}
		for _, ln := range bytes.Split(damaged, []byte("\n")) {
			f.Add(string(ln))
		}
	}
	f.Fuzz(func(t *testing.T, line string) {
		if len(line) > 1<<16 {
			return
		}
		checkEquivalence(t, line)
	})
}
