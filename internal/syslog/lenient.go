package syslog

import (
	"errors"
	"fmt"
	"unicode/utf8"

	"gpuresilience/internal/intern"
	"gpuresilience/internal/xid"
)

// LineClass is the corruption taxonomy of lenient Stage I: every line that
// looks like an Xid record but cannot be parsed — or cannot be read at all —
// lands in exactly one class. Lines that do not look like Xid records and
// read cleanly are noise, not corruption (the extractor cannot tell damaged
// foreign lines from ordinary kernel chatter).
type LineClass int

const (
	// ClassBadTimestamp: the Xid shape matched but the timestamp field does
	// not parse as the consolidated-log layout.
	ClassBadTimestamp LineClass = iota
	// ClassBadPCIAddr: the PCI address is not a known GPU slot and not a
	// well-formed synthetic address.
	ClassBadPCIAddr
	// ClassBadXIDCode: the code field is not an integer in [0, maxXIDCode].
	ClassBadXIDCode
	// ClassOverlong: the physical line exceeds the line-length ceiling; the
	// excess bytes are discarded up to the next newline.
	ClassOverlong
	// ClassNonUTF8: the line is not valid UTF-8 — binary garbage from a torn
	// or interleaved write, not a log line at all.
	ClassNonUTF8

	// NumLineClasses sizes per-class count arrays.
	NumLineClasses = int(ClassNonUTF8) + 1
)

// String returns the human-readable category label used in reports.
func (c LineClass) String() string {
	switch c {
	case ClassBadTimestamp:
		return "unparseable timestamp"
	case ClassBadPCIAddr:
		return "unknown PCI address"
	case ClassBadXIDCode:
		return "out-of-range XID code"
	case ClassOverlong:
		return "overlong line"
	case ClassNonUTF8:
		return "non-UTF-8 bytes"
	default:
		return fmt.Sprintf("LineClass(%d)", int(c))
	}
}

// ParseError is the typed field-parse failure ParseLine returns for lines
// that match the Xid shape but carry a corrupt field. The message renders
// lazily in Error() — the classifiers on the hot path only ever read
// Class, so a malformed line costs the field copy, not a fmt.Sprintf.
type ParseError struct {
	Class LineClass // the corruption category the line falls in
	field string    // raw text of the offending field
	cause error
}

// Error implements error.
func (e *ParseError) Error() string {
	var what string
	switch e.Class {
	case ClassBadTimestamp:
		what = "bad timestamp"
	case ClassBadPCIAddr:
		what = "unknown PCI address"
	case ClassBadXIDCode:
		what = "bad code"
	default:
		what = "bad field"
	}
	msg := fmt.Sprintf("syslog: %s %q", what, e.field)
	if e.cause != nil {
		return msg + ": " + e.cause.Error()
	}
	return msg
}

// Unwrap exposes the underlying parse failure, when any.
func (e *ParseError) Unwrap() error { return e.cause }

// Lenient-mode sizing defaults.
const (
	// defaultQuarantinePerClass bounds the sidecar sample per category.
	defaultQuarantinePerClass = 4
	// quarantineSampleBytes truncates each quarantined line sample.
	quarantineSampleBytes = 160
)

// LenientOptions configures corruption-tolerant extraction. The zero value
// means: no error budget (never fail on content), default quarantine bound,
// default line-length ceiling (MaxLineBytes).
type LenientOptions struct {
	// MaxBadLines is the absolute error budget: once more than this many
	// lines have been classified as corrupt, extraction fails fast with a
	// *BudgetError. 0 disables the absolute budget.
	MaxBadLines int
	// MaxBadFrac is the fractional error budget, evaluated over the whole
	// stream at EOF (a running fraction is not monotone, so checking it
	// mid-stream would make the outcome depend on chunking). 0 disables it.
	MaxBadFrac float64
	// QuarantinePerClass bounds how many sample lines are retained per
	// corruption category (first-seen order). 0 means the default (4).
	QuarantinePerClass int
	// MaxLineBytes overrides the line-length ceiling, mainly for tests.
	// 0 means MaxLineBytes (4 MiB); values below 4 KiB are raised to 4 KiB
	// so overlong-line quarantine samples are identical on the sequential
	// and chunked paths.
	MaxLineBytes int
}

// minLineCeiling is the smallest accepted MaxLineBytes override. It must
// exceed quarantineSampleBytes by enough that every path has the full
// sample in hand when it detects an overlong line.
const minLineCeiling = 4 << 10

// withDefaults resolves zero fields to their effective values.
func (o LenientOptions) withDefaults() LenientOptions {
	if o.QuarantinePerClass <= 0 {
		o.QuarantinePerClass = defaultQuarantinePerClass
	}
	if o.MaxLineBytes <= 0 {
		o.MaxLineBytes = MaxLineBytes
	}
	if o.MaxLineBytes < minLineCeiling {
		o.MaxLineBytes = minLineCeiling
	}
	return o
}

// Quarantined is one corrupt line retained as evidence: its 1-based line
// number in the stream, its category, and a truncated sample of its bytes.
type Quarantined struct {
	Line   int       // 1-based line number in the scanned stream
	Class  LineClass // the corruption category
	Sample string    // truncated raw bytes, for forensics
}

// BudgetStatus records the error-budget configuration and outcome inside an
// IngestionReport.
type BudgetStatus struct {
	MaxBadLines int     // absolute corrupt-line budget, 0 = unlimited
	MaxBadFrac  float64 // fractional corrupt-line budget, 0 = unlimited
	// Exceeded is true when the run failed on a budget; Dominant then names
	// the corruption category with the highest count.
	Exceeded bool
	Dominant LineClass // see Exceeded
}

// IngestionReport is the structured outcome of a lenient Stage I run: what
// was scanned, what was recovered, and what was quarantined. On a nil-error
// run the report is identical at any worker count; after a budget or
// callback failure it reflects the state at the abort point, which is
// chunking-dependent.
type IngestionReport struct {
	// Lines is the total number of physical lines scanned (overlong lines
	// count once).
	Lines int
	// Records is how many Xid records were extracted.
	Records int
	// Noise is how many well-formed non-Xid lines were skipped.
	Noise int
	// Bad counts corrupt lines per category, indexed by LineClass.
	Bad [NumLineClasses]int
	// BadTotal is the sum over Bad.
	BadTotal int
	// Quarantine holds up to QuarantinePerClass samples per category, in
	// stream order.
	Quarantine []Quarantined
	Budget     BudgetStatus // budget configuration and outcome
}

// BadFrac returns the corrupt-line fraction of the scanned stream.
func (r *IngestionReport) BadFrac() float64 {
	if r.Lines == 0 {
		return 0
	}
	return float64(r.BadTotal) / float64(r.Lines)
}

// Dominant returns the corruption category with the highest count and that
// count (ties break toward the lower class). The count is 0 on a clean run.
func (r *IngestionReport) Dominant() (LineClass, int) {
	best, n := ClassBadTimestamp, r.Bad[ClassBadTimestamp]
	for c := 1; c < NumLineClasses; c++ {
		if r.Bad[c] > n {
			best, n = LineClass(c), r.Bad[c]
		}
	}
	return best, n
}

// BudgetKind distinguishes the two error budgets.
type BudgetKind int

const (
	// BudgetLines is the absolute bad-line budget (fails fast mid-stream).
	BudgetLines BudgetKind = iota
	// BudgetFraction is the whole-stream bad-fraction budget (checked at EOF).
	BudgetFraction
)

// String names the budget kind.
func (k BudgetKind) String() string {
	if k == BudgetFraction {
		return "fraction"
	}
	return "lines"
}

// BudgetError reports a log too corrupt to trust: one of the error budgets
// was exceeded. It names the dominant corruption category so the caller can
// tell a truncated transfer (overlong/non-UTF-8) from clock damage.
type BudgetError struct {
	Kind     BudgetKind // which budget tripped (absolute or fractional)
	BadTotal int        // corrupt lines seen when the budget tripped
	Lines    int        // total lines scanned at that point
	Limit    float64    // MaxBadLines or MaxBadFrac, depending on Kind
	Dominant LineClass  // highest-count corruption category
}

// Error implements error.
func (e *BudgetError) Error() string {
	switch e.Kind {
	case BudgetFraction:
		return fmt.Sprintf(
			"syslog: log too corrupt: %d of %d lines bad (%.2f%% > budget %.2f%%), dominant category: %s",
			e.BadTotal, e.Lines, 100*float64(e.BadTotal)/float64(e.Lines), 100*e.Limit, e.Dominant)
	default:
		return fmt.Sprintf(
			"syslog: log too corrupt: %d bad lines exceed budget of %d, dominant category: %s",
			e.BadTotal, int(e.Limit), e.Dominant)
	}
}

// lineKind is the three-way outcome of classifying one line.
type lineKind int

const (
	lineRecord lineKind = iota
	lineNoise
	lineBad
)

// classifyLine classifies one complete (not overlong) line, straight off
// the reader's byte slice, storing a record's event in *ev (passed in
// rather than returned, so the hot loop does not copy each event through
// every layer). Order matters: parse first — a well-shaped record is
// accepted even if its free-text detail carries damaged bytes — then flag
// unreadable non-matching lines as non-UTF-8, and only then fall through to
// noise. Event strings come from the interner, so the caller may reuse
// line's backing array immediately.
func classifyLine(line []byte, in *intern.Interner, ev *xid.Event) (LineClass, lineKind) {
	var (
		ok  bool
		err error
	)
	*ev, ok, err = parseLineBytes(line, in)
	if err != nil {
		var pe *ParseError
		if errors.As(err, &pe) {
			return pe.Class, lineBad
		}
		return ClassBadTimestamp, lineBad
	}
	if ok {
		return 0, lineRecord
	}
	if !utf8.Valid(line) {
		return ClassNonUTF8, lineBad
	}
	return 0, lineNoise
}

// truncateSample bounds a line to the quarantine sample size.
func truncateSample(line []byte) []byte {
	if len(line) > quarantineSampleBytes {
		line = line[:quarantineSampleBytes]
	}
	return line
}

// trimCR drops one trailing carriage return, as bufio.ScanLines does, so
// CR-LF logs classify identically on every path.
func trimCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}

// stats projects the report onto the ExtractStats shape, in both modes.
// Lenient stats count every corrupt line as Malformed and only clean
// non-Xid lines as Skipped. Strict mode holds that a line which does not
// look like a record is noise however unreadable it is, so there non-UTF-8
// lines move from Malformed to Skipped.
func (r *IngestionReport) stats(strict bool) ExtractStats {
	st := ExtractStats{
		Lines:     r.Lines,
		XIDLines:  r.Records,
		Skipped:   r.Noise,
		Malformed: r.BadTotal,
	}
	if strict {
		st.Skipped += r.Bad[ClassNonUTF8]
		st.Malformed -= r.Bad[ClassNonUTF8]
	}
	return st
}

// reportState is one scan's running accounting, in either mode: the
// report, the per-class quarantine fill levels (which are not part of the
// report itself), and the resolved line policy.
type reportState struct {
	rep     IngestionReport
	qn      [NumLineClasses]int
	opt     LenientOptions // resolved; in strict mode no budgets and no quarantine
	lenient bool
}

// newReportState resolves a run's line policy. Strict mode (lopt nil) has
// the fixed MaxLineBytes ceiling, no budgets, and keeps no samples.
func newReportState(lopt *LenientOptions) *reportState {
	if lopt == nil {
		return &reportState{opt: LenientOptions{MaxLineBytes: MaxLineBytes}}
	}
	opt := lopt.withDefaults()
	return &reportState{
		rep: IngestionReport{Budget: BudgetStatus{
			MaxBadLines: opt.MaxBadLines,
			MaxBadFrac:  opt.MaxBadFrac,
		}},
		opt:     opt,
		lenient: true,
	}
}

// fresh returns an empty state with s's policy, for one chunk's share.
func (s *reportState) fresh() reportState {
	return reportState{opt: s.opt, lenient: s.lenient}
}

// line accounts one physical line (newline stripped) and stores its event
// in *ev when it is a record. Records are counted where events are
// delivered.
func (s *reportState) line(line []byte, in *intern.Interner, ev *xid.Event) lineKind {
	s.rep.Lines++
	if len(line) > s.opt.MaxLineBytes {
		s.record(ClassOverlong, line)
		return lineBad
	}
	line = trimCR(line)
	class, kind := classifyLine(line, in, ev)
	switch kind {
	case lineNoise:
		s.rep.Noise++
	case lineBad:
		s.record(class, line)
	}
	return kind
}

// record counts the current line as corrupt and quarantines its sample
// while the class is under the cap. The budgets are checked by the caller
// — the chunked path counts per worker but budgets only at the ordered
// fan-in, so the verdict is identical at any worker count.
func (s *reportState) record(class LineClass, line []byte) {
	s.rep.Bad[class]++
	s.rep.BadTotal++
	if s.qn[class] < s.opt.QuarantinePerClass {
		s.qn[class]++
		s.rep.Quarantine = append(s.rep.Quarantine, Quarantined{
			Line: s.rep.Lines, Class: class, Sample: string(truncateSample(line)),
		})
	}
}

// merge appends part, the report of the stretch of stream that follows
// everything merged so far: counts add up, and part's quarantine samples
// are rebased past the lines already merged and kept while their class is
// under the cap.
func (s *reportState) merge(part *IngestionReport) {
	for _, q := range part.Quarantine {
		if s.qn[q.Class] < s.opt.QuarantinePerClass {
			s.qn[q.Class]++
			q.Line += s.rep.Lines
			s.rep.Quarantine = append(s.rep.Quarantine, q)
		}
	}
	s.rep.Lines += part.Lines
	s.rep.Records += part.Records
	s.rep.Noise += part.Noise
	for c := range part.Bad {
		s.rep.Bad[c] += part.Bad[c]
	}
	s.rep.BadTotal += part.BadTotal
}

// checkBudgets enforces the absolute budget and, once the whole stream is
// in (atEOF), the fractional one: a running fraction is not monotone, so
// checking it mid-stream would make the outcome depend on chunking.
func (s *reportState) checkBudgets(atEOF bool) error {
	if s.opt.MaxBadLines > 0 && s.rep.BadTotal > s.opt.MaxBadLines {
		return s.fail(BudgetLines)
	}
	if atEOF && s.opt.MaxBadFrac > 0 && s.rep.BadFrac() > s.opt.MaxBadFrac {
		return s.fail(BudgetFraction)
	}
	return nil
}

// fail marks the budget as exceeded and builds the typed error. Dominant
// is stamped only here, so a clean run leaves Budget.Dominant zero.
func (s *reportState) fail(kind BudgetKind) error {
	dom, _ := s.rep.Dominant()
	s.rep.Budget.Exceeded = true
	s.rep.Budget.Dominant = dom
	limit := float64(s.opt.MaxBadLines)
	if kind == BudgetFraction {
		limit = s.opt.MaxBadFrac
	}
	return &BudgetError{
		Kind:     kind,
		BadTotal: s.rep.BadTotal,
		Lines:    s.rep.Lines,
		Limit:    limit,
		Dominant: dom,
	}
}

// MergeReports folds the lenient reports of consecutive stretches of one
// stream — the shards of a plan, in plan order — into the report a single
// run over their concatenation would produce: counts sum, quarantine line
// numbers are rebased and re-capped, and opt's budgets are enforced over
// the merged totals. The report is non-nil even alongside the
// *BudgetError.
func MergeReports(parts []*IngestionReport, opt LenientOptions) (*IngestionReport, error) {
	s := newReportState(&opt)
	for _, p := range parts {
		s.merge(p)
	}
	return &s.rep, s.checkBudgets(true)
}
