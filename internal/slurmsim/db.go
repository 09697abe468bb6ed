package slurmsim

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
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

// DumpDB writes job records as a sacct-style parsable2 table.
func DumpDB(w io.Writer, jobs []*Job) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintln(bw, dbHeader); err != nil {
		return err
	}
	for _, j := range jobs {
		start := ""
		if !j.Start.IsZero() {
			start = j.Start.UTC().Format(dbTimeLayout)
		}
		end := ""
		if !j.End.IsZero() {
			end = j.End.UTC().Format(dbTimeLayout)
		}
		ml := "0"
		if j.ML {
			ml = "1"
		}
		_, err := fmt.Fprintf(bw, "%d|%s|%s|%s|%d|%s|%s|%s|%s|%d:0|%s|%s\n",
			j.ID, sanitize(j.Name), sanitize(j.User), sanitize(j.Partition), j.GPUs,
			j.Submit.UTC().Format(dbTimeLayout), start, end,
			j.State, j.ExitCode, j.Place, ml)
		if err != nil {
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
// amortizes over this many rows.
const jobArenaSize = 1024

// dbLoader carries the allocation state of one LoadDB run: an interner for
// the small recurring vocabularies (names, users, partitions, node names), a
// Job arena so rows don't allocate one object each, and placement and int
// arenas for the placement entries and their GPU-index slices.
type dbLoader struct {
	in     *intern.Interner
	arena  []Job
	places []NodeGPUs
	ints   []int
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

// LoadDB parses a dump produced by DumpDB.
//
// The row parser works field-by-field on the scanner's byte view — no
// per-line string copy — with fixed-layout fast paths for the timestamp and
// integer columns that fall back to time.Parse/strconv on anything
// non-canonical, so accept/reject semantics and error text match the
// historical strings-based parser exactly.
func LoadDB(r io.Reader) ([]*Job, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	ld := dbLoader{in: intern.New()}
	jobs := make([]*Job, 0, estimateDBRows(r))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if lineNo == 1 {
			if !bytes.Equal(line, dbHeaderBytes) {
				return nil, fmt.Errorf("slurmsim: unexpected DB header %q", line)
			}
			continue
		}
		if len(line) == 0 {
			continue
		}
		j, err := ld.parseRow(line)
		if err != nil {
			return nil, fmt.Errorf("slurmsim: line %d: %w", lineNo, err)
		}
		jobs = append(jobs, j)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return jobs, nil
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

// parseDBTime parses one timestamp column. DumpDB always emits the canonical
// 20-byte UTC form, which the fixed-layout fast path handles without
// allocating; anything else goes through time.Parse for identical semantics.
func parseDBTime(b []byte) (time.Time, error) {
	if t, ok := fasttime.ParseRFC3339UTC(b); ok {
		return t, nil
	}
	return time.Parse(dbTimeLayout, string(b))
}

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
	submit, err := parseDBTime(f[5])
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	var start, end time.Time
	if len(f[6]) != 0 {
		if start, err = parseDBTime(f[6]); err != nil {
			return nil, fmt.Errorf("start: %w", err)
		}
	}
	if len(f[7]) != 0 {
		if end, err = parseDBTime(f[7]); err != nil {
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
	j := &carve(&ld.arena, 1, jobArenaSize)[0]
	*j = Job{
		ID:        id,
		Name:      ld.in.Intern(f[1]),
		User:      ld.in.Intern(f[2]),
		Partition: ld.in.Intern(f[3]),
		GPUs:      gpus,
		Submit:    submit,
		Start:     start,
		End:       end,
		State:     state,
		ExitCode:  exit,
		Place:     place,
		ML:        len(f[11]) == 1 && f[11][0] == '1',
	}
	return j, nil
}

var placementSemi = []byte{';'}

// parsePlacement parses the canonical Placement.String encoding —
// "node:i,j;node:k" with plain digit runs and strictly ascending node names —
// straight off the bytes, backing the entries and index lists from the
// loader's arenas. Any deviation restarts the whole field through the
// exported ParsePlacement, so the loader keeps its Sscanf-level tolerance
// (signed indices, leading spaces, any part order) and its exact errors.
func (ld *dbLoader) parsePlacement(b []byte) (Placement, error) {
	if len(b) == 0 {
		return nil, nil
	}
	p := Placement(carve(&ld.places, bytes.Count(b, placementSemi)+1, 1024))
	rest, prev := b, []byte(nil)
	for n := range p {
		var part []byte
		if i := bytes.IndexByte(rest, ';'); i >= 0 {
			part, rest = rest[:i], rest[i+1:]
		} else {
			part = rest
		}
		ci := bytes.IndexByte(part, ':')
		if ci <= 0 || n > 0 && bytes.Compare(part[:ci], prev) <= 0 {
			return ParsePlacement(string(b)) // cold corrupt-input fallback; the hot path parses in place
		}
		node, list := part[:ci], part[ci+1:]
		prev = node
		idxs := carve(&ld.ints, bytes.Count(list, []byte{','})+1, 4096)
		k := 0
		for {
			var seg []byte
			if j := bytes.IndexByte(list, ','); j >= 0 {
				seg, list = list[:j], list[j+1:]
			} else {
				seg, list = list, nil
			}
			v, ok := atoiFast(seg)
			if !ok {
				return ParsePlacement(string(b)) // cold corrupt-input fallback; the hot path parses in place
			}
			idxs[k] = v
			k++
			if list == nil {
				break
			}
		}
		p[n] = NodeGPUs{Node: ld.in.Intern(node), GPUs: idxs}
	}
	return p, nil
}
