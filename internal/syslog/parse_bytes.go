package syslog

import (
	"strconv"
	"time"

	"gpuresilience/internal/fasttime"
	"gpuresilience/internal/intern"
	"gpuresilience/internal/xid"
)

// This file is the hand-rolled Stage I matcher. It recognizes exactly the
// lines the historical regex
//
//	^(\S+) (\S+) kernel: NVRM: Xid \(PCI:([0-9A-Fa-f:]+)\): (\d+), pid=\d+, name=\S*, (.*)$
//
// matched — byte for byte, including RE2's corner semantics — without
// running a regex engine or allocating per line. The regex itself survives
// as the differential-test oracle in parse_oracle_test.go; the fuzz target
// FuzzParseLineEquivalence holds the two implementations to identical
// classification of every input.
//
// RE2 details the matcher must reproduce:
//
//   - \s is exactly [\t\n\f\r ]: vertical tab (0x0B) and invalid UTF-8
//     bytes are \S, so they belong to tokens.
//   - Each (\S+) run is maximal and must be terminated by a literal ' '
//     (0x20) — a tab or form feed ends the run but fails the space literal.
//   - The name=\S* run can only satisfy the following ", " at its final
//     position: any earlier split puts a non-space byte where the ' ' must
//     be. So the run's terminator must be ' ' and its last byte ','.
//   - '.' does not match '\n' and the pattern is anchored, so a line
//     containing '\n' anywhere never matches.

// Literal segments of the Xid line shape, in order of appearance.
const (
	litKernel = "kernel: NVRM: Xid (PCI:"
	litClose  = "): "
	litPid    = ", pid="
	litName   = ", name="
)

// isREWhitespace reports RE2's \s byte set.
func isREWhitespace(c byte) bool {
	switch c {
	case '\t', '\n', '\f', '\r', ' ':
		return true
	}
	return false
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// isPCIByte reports membership in the regex class [0-9A-Fa-f:].
func isPCIByte(c byte) bool {
	return c == ':' || isDigit(c) || (c >= 'A' && c <= 'F') || (c >= 'a' && c <= 'f')
}

// hasLit reports whether lit occurs in line at offset at.
func hasLit[T fasttime.ByteSeq](line T, at int, lit string) bool {
	if at+len(lit) > len(line) {
		return false
	}
	for i := 0; i < len(lit); i++ {
		if line[at+i] != lit[i] {
			return false
		}
	}
	return true
}

// xidFields is the structural decomposition of an Xid-shaped line: the
// capture-group spans as offsets into the line. Detail runs to the end of
// the line.
type xidFields struct {
	tsEnd    int
	nodeLo   int
	nodeHi   int
	pciLo    int
	pciHi    int
	codeLo   int
	codeHi   int
	detailLo int
}

// splitXidLine structurally matches one line against the Xid shape.
// Precondition: line contains no '\n' (line-split input never does;
// ParseLine pre-checks its string argument).
func splitXidLine[T fasttime.ByteSeq](line T) (f xidFields, ok bool) {
	n := len(line)
	// (\S+) timestamp, terminated by a literal space.
	i := 0
	for i < n && !isREWhitespace(line[i]) {
		i++
	}
	if i == 0 || i >= n || line[i] != ' ' {
		return f, false
	}
	f.tsEnd = i
	i++
	// (\S+) node.
	f.nodeLo = i
	for i < n && !isREWhitespace(line[i]) {
		i++
	}
	if i == f.nodeLo || i >= n || line[i] != ' ' {
		return f, false
	}
	f.nodeHi = i
	i++
	if !hasLit(line, i, litKernel) {
		return f, false
	}
	i += len(litKernel)
	// ([0-9A-Fa-f:]+): ')' is outside the class, so the run is forced
	// maximal and must stop exactly at the closing literal.
	f.pciLo = i
	for i < n && isPCIByte(line[i]) {
		i++
	}
	if i == f.pciLo || !hasLit(line, i, litClose) {
		return f, false
	}
	f.pciHi = i
	i += len(litClose)
	// (\d+) code.
	f.codeLo = i
	for i < n && isDigit(line[i]) {
		i++
	}
	if i == f.codeLo || !hasLit(line, i, litPid) {
		return f, false
	}
	f.codeHi = i
	i += len(litPid)
	// \d+ pid (uncaptured).
	lo := i
	for i < n && isDigit(line[i]) {
		i++
	}
	if i == lo || !hasLit(line, i, litName) {
		return f, false
	}
	i += len(litName)
	// \S*, then ", ": only the final split of the run can match (any
	// earlier one leaves a non-space byte under the ' ' literal), so the
	// run's terminator must be ' ' and the byte before it ','.
	j := i
	for j < n && !isREWhitespace(line[j]) {
		j++
	}
	if j >= n || line[j] != ' ' || j == i || line[j-1] != ',' {
		return f, false
	}
	f.detailLo = j + 1
	return f, true
}

// parseXidTime parses the timestamp field: the canonical 27-byte
// microsecond layout on the fast path, straight to Unix nanoseconds;
// time.Parse for anything else so accept/reject semantics (and error text)
// stay the standard library's. An instant the event record cannot hold
// (outside xid.MinTime..xid.MaxTime) is an *xid.RangeError.
func parseXidTime[T fasttime.ByteSeq](tok T) (xid.Time, error) {
	if sec, nsec, ok := fasttime.UnixMicroUTC(tok); ok {
		if ts, ok := xid.Unix(sec, nsec); ok {
			return ts, nil
		}
	}
	ts, err := time.Parse(timeLayout, string(tok))
	if err != nil {
		return 0, err
	}
	return xid.TimeOf(ts)
}

// gpuIndexSeq inverts PCIAddr over either string or byte-slice input. Real
// slots are the exact uppercase "0000:XX:00" addresses of the board
// layout; synthetic addresses are "0001:hh:00" with either hex case
// (matching the historical syntheticPCIRE).
func gpuIndexSeq[T fasttime.ByteSeq](addr T) (int, bool) {
	if len(addr) != 10 || addr[4] != ':' || addr[7] != ':' ||
		addr[0] != '0' || addr[1] != '0' || addr[2] != '0' ||
		addr[8] != '0' || addr[9] != '0' {
		return 0, false
	}
	hi, ok1 := hexNib(addr[5])
	lo, ok2 := hexNib(addr[6])
	if !ok1 || !ok2 {
		return 0, false
	}
	bus := hi<<4 | lo
	switch addr[3] {
	case '0':
		// Real slots print with %02X: lowercase hex never round-trips.
		if isLowerHex(addr[5]) || isLowerHex(addr[6]) {
			return 0, false
		}
		for i, b := range pciBases {
			if b == bus {
				return i, true
			}
		}
	case '1':
		return bus, true
	}
	return 0, false
}

func hexNib(c byte) (int, bool) {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0'), true
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10, true
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10, true
	}
	return 0, false
}

func isLowerHex(c byte) bool { return c >= 'a' && c <= 'f' }

// parseXidCode evaluates the digit run line[lo:hi] with saturation at the
// first value past maxXIDCode — equivalent to Atoi-then-range-check but
// without overflow on absurd runs.
func parseXidCode[T fasttime.ByteSeq](line T, lo, hi int) (int, bool) {
	v := 0
	for i := lo; i < hi; i++ {
		v = v*10 + int(line[i]-'0')
		if v > maxXIDCode {
			return 0, false
		}
	}
	return v, true
}

// parseLineCore is the shared semantic layer over the structural matcher:
// field validation and conversion, with the class and raw text of the
// offending field packed into a lazy ParseError on failure. Allocation
// happens only on those failure paths (and inside time.Parse fallbacks).
func parseLineCore[T fasttime.ByteSeq](line T) (f xidFields, ts xid.Time, gpu, code int, shaped bool, perr *ParseError) {
	f, shaped = splitXidLine(line)
	if !shaped {
		return
	}
	var terr error
	ts, terr = parseXidTime(line[:f.tsEnd])
	if terr != nil {
		perr = &ParseError{Class: ClassBadTimestamp, field: string(line[:f.tsEnd]), cause: terr}
		return
	}
	var found bool
	gpu, found = gpuIndexSeq(line[f.pciLo:f.pciHi])
	if !found {
		perr = &ParseError{Class: ClassBadPCIAddr, field: string(line[f.pciLo:f.pciHi])}
		return
	}
	var ok bool
	code, ok = parseXidCode(line, f.codeLo, f.codeHi)
	if !ok {
		// Reproduce the historical cause exactly: Atoi's range error for
		// overflowing runs, none for in-range values past maxXIDCode.
		_, aerr := strconv.Atoi(string(line[f.codeLo:f.codeHi]))
		perr = &ParseError{Class: ClassBadXIDCode, field: string(line[f.codeLo:f.codeHi]), cause: aerr}
		return
	}
	return
}

// parseLineBytes is ParseLine over a scanner-owned byte slice: zero
// allocations for noise lines, and the event's strings come from the
// interner, so the caller may reuse (or pool) line's backing array as soon
// as the call returns. Precondition: line contains no '\n'.
func parseLineBytes(line []byte, in *intern.Interner) (ev xid.Event, ok bool, err error) {
	f, ts, gpu, code, shaped, perr := parseLineCore(line)
	if !shaped {
		return xid.Event{}, false, nil
	}
	if perr != nil {
		return xid.Event{}, false, perr
	}
	return xid.Event{
		Time:   ts,
		Node:   in.Intern(line[f.nodeLo:f.nodeHi]),
		GPU:    int32(gpu),
		Code:   xid.Code(code),
		Detail: in.Intern(line[f.detailLo:]),
	}, true, nil
}
