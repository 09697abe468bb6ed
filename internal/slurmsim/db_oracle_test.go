package slurmsim

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// parseDBLineOracle is the historical strings-based row parser, kept
// verbatim as the differential oracle for the byte-level loader: same
// accept/reject decision, same Job, same error text on every row.
func parseDBLineOracle(line string) (*Job, error) {
	fields := strings.Split(line, "|")
	if len(fields) != 12 {
		return nil, fmt.Errorf("want 12 fields, got %d", len(fields))
	}
	id, err := strconv.Atoi(fields[0])
	if err != nil {
		return nil, fmt.Errorf("job id: %w", err)
	}
	gpus, err := strconv.Atoi(fields[4])
	if err != nil {
		return nil, fmt.Errorf("gpus: %w", err)
	}
	submit, err := time.Parse(dbTimeLayout, fields[5])
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	var start, end time.Time
	if fields[6] != "" {
		if start, err = time.Parse(dbTimeLayout, fields[6]); err != nil {
			return nil, fmt.Errorf("start: %w", err)
		}
	}
	if fields[7] != "" {
		if end, err = time.Parse(dbTimeLayout, fields[7]); err != nil {
			return nil, fmt.Errorf("end: %w", err)
		}
	}
	state, err := ParseJobState(fields[8])
	if err != nil {
		return nil, err
	}
	exitStr, _, ok := strings.Cut(fields[9], ":")
	if !ok {
		return nil, fmt.Errorf("exit code %q not in code:signal form", fields[9])
	}
	exit, err := strconv.Atoi(exitStr)
	if err != nil {
		return nil, fmt.Errorf("exit code: %w", err)
	}
	place, err := ParsePlacement(fields[10])
	if err != nil {
		return nil, err
	}
	return &Job{
		ID:        id,
		Name:      fields[1],
		User:      fields[2],
		Partition: fields[3],
		GPUs:      gpus,
		Submit:    submit,
		Start:     start,
		End:       end,
		State:     state,
		ExitCode:  exit,
		Place:     place,
		ML:        fields[11] == "1",
	}, nil
}

func dbRowCorpus() []string {
	return []string{
		// Well-formed rows of every shape DumpDB emits.
		"1|train|alice|gpuA100x4|4|2023-01-01T00:00:00Z|2023-01-01T01:00:00Z|2023-01-01T02:00:00Z|COMPLETED|0:0|gpub001:0,1,2,3|1",
		"2|bench|bob|gpuA100x8|8|2023-01-01T00:00:00Z|2023-01-01T01:00:00Z|2023-01-01T02:00:00Z|NODE_FAIL|1:0|gpub001:0,1;gpub002:4,5,6,7|0",
		"3|j|u|p|0|2023-01-01T00:00:00Z|||PENDING|0:0||0",
		"4|j|u|p|1|2023-01-01T00:00:00Z|2023-01-01T01:00:00Z||RUNNING|0:0|n1:7|0",
		"5|j|u|p|1|2023-02-29T00:00:00Z|||PENDING|0:0||0", // non-leap Feb 29: bad submit
		// time.Parse leniencies the fast path must defer on, not reject.
		"6|j|u|p|1|2023-01-01T00:00:00+02:00|||PENDING|0:0||0",
		"7|j|u|p|1|2023-01-01T00:00:00.5Z|||PENDING|0:0||0",
		"8|j|u|p|1|2024-02-29T23:59:59Z|||PENDING|0:0||0", // real leap day
		// Integer edge cases: signs and overflow fall back to strconv.
		"-9|j|u|p|-1|2023-01-01T00:00:00Z|||PENDING|-1:0||0",
		"+10|j|u|p|007|2023-01-01T00:00:00Z|||PENDING|0:0||0",
		"99999999999999999999|j|u|p|1|2023-01-01T00:00:00Z|||PENDING|0:0||0",
		"|j|u|p|1|2023-01-01T00:00:00Z|||PENDING|0:0||0",
		// State, exit-code, and placement corruption.
		"11|j|u|p|1|2023-01-01T00:00:00Z|||NOPE|0:0||0",
		"12|j|u|p|1|2023-01-01T00:00:00Z|||PENDING|0||0",
		"13|j|u|p|1|2023-01-01T00:00:00Z|||PENDING|x:0||0",
		"14|j|u|p|1|2023-01-01T00:00:00Z|||PENDING|0:0|bad|0",
		"15|j|u|p|1|2023-01-01T00:00:00Z|||PENDING|0:0|:0|0",
		"16|j|u|p|1|2023-01-01T00:00:00Z|||PENDING|0:0|n1:|0",
		"17|j|u|p|1|2023-01-01T00:00:00Z|||PENDING|0:0|n1:0;;n2:1|0",
		"18|j|u|p|1|2023-01-01T00:00:00Z|||PENDING|0:0|n1: 0|0", // Sscanf skips the space
		"19|j|u|p|1|2023-01-01T00:00:00Z|||PENDING|0:0|n1:-1|0", // Sscanf accepts the sign
		"20|j|u|p|1|2023-01-01T00:00:00Z|||PENDING|0:0|n1:0x|0", // trailing garbage
		"21|j|u|p|1|2023-01-01T00:00:00Z|||PENDING|0:0|n1:0,1;n1:2|0",
		"22|j|u|p|2|2023-01-01T00:00:00Z|||PENDING|0:0|n2:1;n1:0|0", // loads name-ordered
		// Field-count errors, including the >12 report.
		"not|enough|fields",
		"1|2|3|4|5|6|7|8|9|10|11|12|13",
		"",
		"ML column tolerance|j|u|p|1|2023-01-01T00:00:00Z|||PENDING|0:0||yes",
	}
}

func TestParseRowMatchesOracle(t *testing.T) {
	for _, row := range dbRowCorpus() {
		want, werr := parseDBLineOracle(row)
		ld := dbLoader{in: nil}
		got, gerr := ld.parseRow([]byte(row))
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("row %q: error presence diverges: got %v, oracle %v", row, gerr, werr)
		}
		if gerr != nil {
			if gerr.Error() != werr.Error() {
				t.Fatalf("row %q: error diverges:\n got %q\nwant %q", row, gerr, werr)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("row %q:\n got %+v\nwant %+v", row, got, want)
		}
	}
}

// FuzzParseRowEquivalence holds the byte-level row parser to the historical
// strings-based implementation on arbitrary rows.
func FuzzParseRowEquivalence(f *testing.F) {
	for _, row := range dbRowCorpus() {
		f.Add(row)
	}
	f.Fuzz(func(t *testing.T, row string) {
		if len(row) > 1<<16 || strings.ContainsAny(row, "\n\r") {
			return // LoadDB's scanner would split these before parseRow sees them
		}
		want, werr := parseDBLineOracle(row)
		ld := dbLoader{}
		got, gerr := ld.parseRow([]byte(row))
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("error presence diverges on %q: got %v, oracle %v", row, gerr, werr)
		}
		if gerr != nil {
			if gerr.Error() != werr.Error() {
				t.Fatalf("error diverges on %q:\n got %q\nwant %q", row, gerr, werr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("job diverges on %q:\n got %+v\nwant %+v", row, got, want)
		}
	})
}

// TestLoadDBRowAllocBudget pins the per-row allocation cost of the loader on
// a realistic table. The historical parser spent ~15 allocs/row; the budget
// holds the rewrite to ≤3 (the −80% floor of the perf PR's acceptance bar).
func TestLoadDBRowAllocBudget(t *testing.T) {
	const rows = 2000
	var buf bytes.Buffer
	buf.WriteString(dbHeader)
	buf.WriteByte('\n')
	base := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&buf, "%d|train-%d|user%d|gpuA100x4|4|%s|%s|%s|COMPLETED|0:0|gpub%03d:0,1,2,3|1\n",
			i+1, i%7, i%13, base.Format(dbTimeLayout),
			base.Add(time.Hour).Format(dbTimeLayout),
			base.Add(2*time.Hour).Format(dbTimeLayout), i%32)
	}
	data := buf.Bytes()
	allocs := testing.AllocsPerRun(5, func() {
		jobs, err := LoadDB(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != rows {
			t.Fatalf("loaded %d jobs", len(jobs))
		}
	})
	perRow := allocs / rows
	if perRow > 3 {
		t.Fatalf("LoadDB allocs/row = %.2f, budget 3", perRow)
	}
}
