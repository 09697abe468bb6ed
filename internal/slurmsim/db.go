package slurmsim

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"gpuresilience/internal/fasttime"
	"gpuresilience/internal/intern"
)

// dbHeader is the column header of the sacct-style dump. The layout mirrors
// `sacct --parsable2`: pipe-separated, one record per line.
const dbHeader = "JobID|JobName|User|Partition|ReqGPUS|Submit|Start|End|State|ExitCode|Placement|ML"

const dbTimeLayout = time.RFC3339

// DumpDB writes job records as a sacct-style parsable2 table. Each row is
// appended into one reused buffer, so a dump allocates only for text that
// needs sanitizing.
func DumpDB(w io.Writer, jobs []*Job) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(dbHeader + "\n"); err != nil {
		return err
	}
	var row []byte
	for _, j := range jobs {
		var text JobText
		if j.Text != nil {
			text = *j.Text
		}
		row = strconv.AppendInt(row[:0], int64(j.ID), 10)
		for _, field := range [...]string{text.Name, text.User, text.Partition} {
			row = append(append(row, '|'), sanitize(field)...)
		}
		row = strconv.AppendInt(append(row, '|'), int64(j.GPUs), 10)
		row = j.Submit.Time().AppendFormat(append(row, '|'), dbTimeLayout)
		for _, t := range [...]Time{j.Start, j.End} {
			row = append(row, '|')
			if !t.IsZero() {
				row = t.Time().AppendFormat(row, dbTimeLayout)
			}
		}
		row = append(append(row, '|'), j.State.String()...)
		row = strconv.AppendInt(append(row, '|'), int64(j.ExitCode), 10)
		row = j.Place.Nodes().appendTo(append(row, ":0|"...))
		if j.ML {
			row = append(row, "|1\n"...)
		} else {
			row = append(row, "|0\n"...)
		}
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// sanitize strips the field separator from free-text fields.
func sanitize(s string) string {
	if strings.ContainsAny(s, "|\n") {
		s = strings.NewReplacer("|", "_", "\n", " ").Replace(s)
	}
	return s
}

var dbHeaderBytes = []byte(dbHeader)

// jobArenaSize is the Job block size of the loader's arena: one allocation
// amortizes over this many rows, and a load wastes at most one block's tail
// (4,096 72-byte records, 288 KB).
const jobArenaSize = 4096

// textHint presizes the loader's text table. A simulated population has
// 7,200 distinct texts (18 names x 400 users); starting at 1,024 skips the
// table's small growth steps without reserving much for a small DB.
const textHint = 1024

// dbLoader is the one sacct row parser and its state. Every row it parses
// lands in the scratch record row, which the next row overwrites. Names,
// users, partitions and node names come from one interner of those small
// vocabularies. A loader made by newDBLoader also retains: LoadDB's texts
// and placements come from tables sharing one JobText per distinct (name,
// user, partition) and one Placement per distinct allocation, and its
// records from an arena. A scanning loader (ScanDB's) keeps no table: a
// row's text and placement are scratch values too.
type dbLoader struct {
	in       *intern.Interner
	row      Job       // the record of the row just parsed
	rowText  JobText   // a scanning loader's row text
	rowPlace Placement // a scanning loader's row placement
	place    Placement // scanPlacement's scratch
	ints     []int

	// Retention, nil on a scanning loader.
	seed   maphash.Seed
	texts  map[uint64]*JobText // by the hash of the row's "name|user|partition"
	arena  []Job
	tarena []JobText
	places *placeTable
}

// newDBLoader returns a retaining loader, LoadDB's.
func newDBLoader() *dbLoader {
	return &dbLoader{in: intern.New(), seed: maphash.MakeSeed(),
		texts: make(map[uint64]*JobText, textHint), places: newPlaceTable()}
}

// carve cuts an n-element slice off the front of *arena, refilling the arena
// with a block of at least block elements when it runs short. The slice is
// capacity-capped so a later append cannot scribble over a neighbor's slice.
func carve[T any](arena *[]T, n, block int) []T {
	if n > len(*arena) {
		*arena = make([]T, max(n, block))
	}
	s := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return s
}

// estimateDBRows sizes the result slice from the reader when it can see the
// input size (in-memory readers, regular files); ~120 bytes is the measured
// mean row width of a DumpDB table.
func estimateDBRows(r io.Reader) int {
	var size int64
	switch v := r.(type) {
	case interface{ Len() int }:
		size = int64(v.Len())
	case *os.File:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			size = fi.Size()
		}
	}
	n := size / 120
	if n < 16 {
		return 16
	}
	if n > 4<<20 {
		return 4 << 20
	}
	return int(n)
}

// ScanDB parses a dump produced by DumpDB and calls fn on each row's record
// in file order, stopping at the first error, which it returns unwrapped
// when fn's. The record, its Text and its Place are scratch that the next
// row overwrites: fn must copy what it keeps. Once each name, user,
// partition and node has been seen, a canonical row allocates nothing, so a
// pass over the database holds one row at a time.
//
// The row parser works field-by-field on the scanner's byte view — no
// per-line string copy — with fixed-layout fast paths for the timestamp and
// integer columns that fall back to time.Parse/strconv on anything
// non-canonical, so accept/reject semantics and error text match the
// historical strings-based parser exactly. An empty input holds no rows;
// blank lines after the header are skipped.
func ScanDB(r io.Reader, fn func(*Job) error) error {
	return (&dbLoader{in: intern.New()}).scan(r, fn)
}

// LoadDB parses a dump produced by DumpDB into records it keeps: ScanDB's
// rows, each copied into an arena, with texts and placements shared through
// the loader's tables.
func LoadDB(r io.Reader) ([]*Job, error) {
	ld := newDBLoader()
	jobs := make([]*Job, 0, estimateDBRows(r))
	err := ld.scan(r, func(row *Job) error {
		j := &carve(&ld.arena, 1, jobArenaSize)[0]
		*j = *row
		jobs = append(jobs, j)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return jobs, nil
}

// scan is ScanDB over the loader's own state.
func (ld *dbLoader) scan(r io.Reader, fn func(*Job) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if lineNo == 1 {
			if !bytes.Equal(line, dbHeaderBytes) {
				return fmt.Errorf("slurmsim: unexpected DB header %q", line)
			}
			continue
		}
		if len(line) == 0 {
			continue
		}
		j, err := ld.parseRow(line)
		if err != nil {
			return fmt.Errorf("slurmsim: line %d: %w", lineNo, err)
		}
		if err := fn(j); err != nil {
			return err
		}
	}
	return sc.Err()
}

// splitDBFields splits a row on '|' into the 12 sacct columns. n is the true
// field count even when it exceeds 12 (the error message reports it).
func splitDBFields(line []byte, f *[12][]byte) (n int, ok bool) {
	for {
		i := bytes.IndexByte(line, '|')
		if i < 0 {
			break
		}
		if n < 12 {
			f[n] = line[:i]
		}
		n++
		line = line[i+1:]
	}
	if n < 12 {
		f[n] = line
	}
	n++
	return n, n == 12
}

// atoiFast parses a plain unsigned digit run of at most 9 digits (no
// overflow possible). Anything else — sign, empty, long, non-digit — reports
// false so the caller can take the strconv path.
func atoiFast(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	v := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return v, true
}

func atoiBytes(b []byte) (int, error) {
	if v, ok := atoiFast(b); ok {
		return v, nil
	}
	return strconv.Atoi(string(b))
}

// parseDBTime parses one timestamp column; ok is false when it parses but
// lies outside [MinTime, MaxTime]. DumpDB always emits the canonical 20-byte
// UTC form, which the fast path turns straight into nanoseconds; anything
// else goes through time.Parse for identical semantics.
func parseDBTime(b []byte) (t Time, ok bool, err error) {
	if sec, fast := fasttime.UnixRFC3339UTC(b); fast {
		if sec < int64(MinTime/Time(time.Second)) || sec > int64(MaxTime/Time(time.Second)) {
			return 0, false, nil
		}
		return Time(sec) * Time(time.Second), true, nil
	}
	tt, err := time.Parse(dbTimeLayout, string(b))
	if err != nil || !InRange(tt) {
		return 0, false, err
	}
	return At(tt), true, nil
}

// RangeError reports a sacct value that parses but does not fit the job
// record: an ID or exit code beyond int32, a ReqGPUS below 1 or beyond
// int32, or a timestamp outside [MinTime, MaxTime].
type RangeError struct {
	Column string // "job id", "gpus", "submit", "start", "end" or "exit code"
	Value  string // the field as written
	Range  string // the accepted range
}

// Error names the column, the value and the accepted range.
func (e *RangeError) Error() string {
	return fmt.Sprintf("%s: %q out of range %s", e.Column, e.Value, e.Range)
}

func rangeErr(column string, value []byte, lo, hi int) error {
	return &RangeError{Column: column, Value: string(value), Range: fmt.Sprintf("[%d, %d]", lo, hi)}
}

func timeRangeErr(column string, value []byte) error {
	return &RangeError{Column: column, Value: string(value), Range: "[" +
		MinTime.Time().Format(time.RFC3339Nano) + ", " + MaxTime.Time().Format(time.RFC3339Nano) + "]"}
}

func fitsInt32(v int) bool { return v >= math.MinInt32 && v <= math.MaxInt32 }

// parseRow parses one row into the loader's scratch record.
func (ld *dbLoader) parseRow(line []byte) (*Job, error) {
	var f [12][]byte
	if n, ok := splitDBFields(line, &f); !ok {
		return nil, fmt.Errorf("want 12 fields, got %d", n)
	}
	id, err := atoiBytes(f[0])
	if err != nil {
		return nil, fmt.Errorf("job id: %w", err)
	}
	gpus, err := atoiBytes(f[4])
	if err != nil {
		return nil, fmt.Errorf("gpus: %w", err)
	}
	submit, submitOK, err := parseDBTime(f[5])
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	var start, end Time
	startOK, endOK := true, true
	if len(f[6]) != 0 {
		if start, startOK, err = parseDBTime(f[6]); err != nil {
			return nil, fmt.Errorf("start: %w", err)
		}
	}
	if len(f[7]) != 0 {
		if end, endOK, err = parseDBTime(f[7]); err != nil {
			return nil, fmt.Errorf("end: %w", err)
		}
	}
	state, err := parseJobStateBytes(f[8])
	if err != nil {
		return nil, err
	}
	ci := bytes.IndexByte(f[9], ':')
	if ci < 0 {
		return nil, fmt.Errorf("exit code %q not in code:signal form", f[9])
	}
	exit, err := atoiBytes(f[9][:ci])
	if err != nil {
		return nil, fmt.Errorf("exit code: %w", err)
	}
	place, err := ld.parsePlacement(f[10])
	if err != nil {
		return nil, err
	}
	// Range checks come after every column parses, so a row that would not
	// parse reports its parse error whatever its values.
	switch {
	case !fitsInt32(id):
		return nil, rangeErr("job id", f[0], math.MinInt32, math.MaxInt32)
	case gpus < 1 || gpus > math.MaxInt32:
		return nil, rangeErr("gpus", f[4], 1, math.MaxInt32)
	case !submitOK:
		return nil, timeRangeErr("submit", f[5])
	case !startOK:
		return nil, timeRangeErr("start", f[6])
	case !endOK:
		return nil, timeRangeErr("end", f[7])
	case !fitsInt32(exit):
		return nil, rangeErr("exit code", f[9][:ci], math.MinInt32, math.MaxInt32)
	}
	j := &ld.row
	*j = Job{
		Text:     ld.text(line[len(f[0])+1:][:len(f[1])+len(f[2])+len(f[3])+2], &f),
		ID:       int32(id),
		GPUs:     int32(gpus),
		Submit:   submit,
		Start:    start,
		End:      end,
		State:    state,
		ExitCode: int32(exit),
		Place:    place,
		ML:       len(f[11]) == 1 && f[11][0] == '1',
	}
	return j, nil
}

// text returns the JobText for a row's name, user and partition columns
// f[1], f[2] and f[3]; span is the row's "name|user|partition" bytes. A
// scanning loader fills its scratch text. A retaining loader's table holds
// one text per hash of span, checked field by field, so a hit costs one
// hash and no allocation. A text whose hash another text already holds (a
// 64-bit collision) is not shared, only carved anew for each of its rows.
func (ld *dbLoader) text(span []byte, f *[12][]byte) *JobText {
	if ld.texts == nil {
		ld.rowText = JobText{Name: ld.in.Intern(f[1]), User: ld.in.Intern(f[2]), Partition: ld.in.Intern(f[3])}
		return &ld.rowText
	}
	h := maphash.Bytes(ld.seed, span)
	t := ld.texts[h]
	if t != nil && t.Name == string(f[1]) && t.User == string(f[2]) && t.Partition == string(f[3]) {
		return t
	}
	n := &carve(&ld.tarena, 1, 1024)[0]
	*n = JobText{Name: ld.in.Intern(f[1]), User: ld.in.Intern(f[2]), Partition: ld.in.Intern(f[3])}
	if t == nil {
		ld.texts[h] = n
	}
	return n
}

// parsePlacement returns the placement for a Placement field: a scanning
// loader's scratch, or a retaining loader's shared value. A field the table
// has seen before costs one hash and one re-encoding of the entry it is
// checked against. Otherwise the canonical Placement.String encoding —
// "node:i,j;node:k" with plain digit runs and strictly ascending node names —
// is parsed straight off the bytes into scratch (and interned when
// retaining). Any deviation restarts the whole field through the exported
// ParsePlacement, so the loader keeps its tolerance (signed indices, leading
// spaces, any part order) and its exact errors.
func (ld *dbLoader) parsePlacement(b []byte) (*Placement, error) {
	if len(b) == 0 {
		return nil, nil
	}
	if ld.places != nil {
		if p := ld.places.lookup(b); p != nil {
			return p, nil
		}
	}
	p, ok := ld.scanPlacement(b)
	if !ok {
		var err error
		if p, err = ParsePlacement(string(b)); err != nil { // cold corrupt-input fallback
			return nil, err
		}
	}
	if ld.places == nil {
		ld.rowPlace = p
		return &ld.rowPlace, nil
	}
	return ld.places.intern(p), nil
}

// scanPlacement parses a canonical Placement field into the loader's
// scratch, which the next call reuses; ok is false on any deviation.
func (ld *dbLoader) scanPlacement(b []byte) (p Placement, ok bool) {
	p, ints := ld.place[:0], ld.ints[:0]
	rest, prev := b, []byte(nil)
	for rest != nil {
		var part []byte
		if i := bytes.IndexByte(rest, ';'); i >= 0 {
			part, rest = rest[:i], rest[i+1:]
		} else {
			part, rest = rest, nil
		}
		ci := bytes.IndexByte(part, ':')
		if ci <= 0 || len(p) > 0 && bytes.Compare(part[:ci], prev) <= 0 {
			return nil, false
		}
		node, list := part[:ci], part[ci+1:]
		prev = node
		first := len(ints)
		for {
			var seg []byte
			if j := bytes.IndexByte(list, ','); j >= 0 {
				seg, list = list[:j], list[j+1:]
			} else {
				seg, list = list, nil
			}
			v, ok := atoiFast(seg)
			if !ok {
				return nil, false
			}
			ints = append(ints, v)
			if list == nil {
				break
			}
		}
		p = append(p, NodeGPUs{Node: ld.in.Intern(node), GPUs: ints[first:]})
	}
	ld.place, ld.ints = p, ints
	return p, true
}
