// Package benchfmt parses `go test -bench` output into a comparable,
// JSON-serializable form and gates one run against another. It is the
// repository's dependency-free stand-in for benchstat: the bench-json make
// target snapshots a run as BENCH_baseline.json, and the CI perf job fails
// when a later run regresses past the configured ratios.
//
// Comparison semantics are deliberately simpler than benchstat's: repeated
// runs of one benchmark (-count=N) collapse to per-metric medians, and a
// gate trips on the median ratio, not a significance test. Allocation
// metrics are machine-independent, so their gate can be tight; time gates
// must absorb machine-to-machine variance and stay loose.
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's aggregated metrics. Zero-valued metrics were
// absent from the run (e.g. no -benchmem, no SetBytes).
type Result struct {
	Name        string  `json:"name"`                    // benchmark name, GOMAXPROCS suffix stripped
	Runs        int     `json:"runs"`                    // b.N iterations aggregated across lines
	NsPerOp     float64 `json:"ns_per_op"`               // mean wall time per operation
	MBPerS      float64 `json:"mb_per_s,omitempty"`      // throughput when SetBytes was used
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`  // heap bytes per op (-benchmem)
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"` // heap allocations per op (-benchmem)
}

// Machine records where a run was taken, so a baseline says which machine
// its times belong to. Parse fills the fields of the `go test` header; the
// runtime fields are those of the process that formats the run (benchdiff
// fmt, run beside the benchmarks). Compare ignores it.
type Machine struct {
	GOOS       string `json:"goos,omitempty"`       // "goos:" header line
	GOARCH     string `json:"goarch,omitempty"`     // "goarch:" header line
	CPU        string `json:"cpu,omitempty"`        // "cpu:" header line
	Pkg        string `json:"pkg,omitempty"`        // first "pkg:" header line
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"` // runtime.GOMAXPROCS(0)
	NumCPU     int    `json:"num_cpu,omitempty"`    // runtime.NumCPU()
	GoVersion  string `json:"go_version,omitempty"` // runtime.Version()
}

// Set is a parsed benchmark run, ordered by first appearance.
type Set struct {
	Machine    *Machine `json:"machine,omitempty"` // nil when the input had no header
	Benchmarks []Result `json:"benchmarks"`        // in first-appearance order
}

// headerField returns the field of m that a `go test` header line with the
// given key fills, or nil for any other key.
func headerField(m *Machine, key string) *string {
	switch key {
	case "goos":
		return &m.GOOS
	case "goarch":
		return &m.GOARCH
	case "cpu":
		return &m.CPU
	case "pkg":
		return &m.Pkg
	}
	return nil
}

// gomaxprocsSuffix is the "-N" GOMAXPROCS tag the testing package appends to
// benchmark names (absent when GOMAXPROCS=1). Stripping it makes runs from
// machines with different core counts comparable. Sub-benchmark names that
// end in a dash-number of their own would be ambiguous; this repository's
// sub-benchmarks use "key=value" forms, which are safe.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// Parse reads `go test -bench` text output. Repeated occurrences of one
// benchmark (from -count) are collapsed to per-metric medians, and the
// header's goos, goarch, cpu and pkg lines go to the Set's Machine, the
// first occurrence of each winning.
func Parse(r io.Reader) (*Set, error) {
	type sample struct {
		ns, mbs, bytes, allocs []float64
	}
	order := []string{}
	samples := map[string]*sample{}
	var machine Machine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if key, val, ok := strings.Cut(line, ": "); ok {
			if f := headerField(&machine, key); f != nil {
				if *f == "" {
					*f = strings.TrimSpace(val)
				}
				continue
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // "BenchmarkFoo ..." status line, not a result row
		}
		name := gomaxprocsSuffix.ReplaceAllString(f[0], "")
		s := samples[name]
		if s == nil {
			s = &sample{}
			samples[name] = s
			order = append(order, name)
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchfmt: line %d: bad value %q: %w", lineNo, f[i], err)
			}
			switch f[i+1] {
			case "ns/op":
				s.ns = append(s.ns, v)
			case "MB/s":
				s.mbs = append(s.mbs, v)
			case "B/op":
				s.bytes = append(s.bytes, v)
			case "allocs/op":
				s.allocs = append(s.allocs, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	set := &Set{}
	if machine != (Machine{}) {
		set.Machine = &machine
	}
	for _, name := range order {
		s := samples[name]
		set.Benchmarks = append(set.Benchmarks, Result{
			Name:        name,
			Runs:        len(s.ns),
			NsPerOp:     median(s.ns),
			MBPerS:      median(s.mbs),
			BytesPerOp:  median(s.bytes),
			AllocsPerOp: median(s.allocs),
		})
	}
	if len(set.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchfmt: no benchmark results in input")
	}
	return set, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Lookup returns the named result.
func (s *Set) Lookup(name string) (Result, bool) {
	for _, b := range s.Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return Result{}, false
}

// Delta is one benchmark's base-to-current comparison. Ratios are
// current/base; a ratio is 1 when the base metric is 0 and the current
// metric is too, and +Inf when only the base is 0.
type Delta struct {
	Name       string  // benchmark name shared by both runs
	Base, Cur  Result  // the two runs being compared
	TimeRatio  float64 // Cur.NsPerOp / Base.NsPerOp
	AllocRatio float64 // Cur.AllocsPerOp / Base.AllocsPerOp
	BytesRatio float64 // Cur.BytesPerOp / Base.BytesPerOp
	// Violation names the gate the delta tripped, empty when within bounds.
	Violation string
}

// Compare gates cur against base: time may grow to maxTimeRatio x, and
// allocs/op and B/op to maxAllocRatio x. Only benchmarks present in both
// sets are compared (CI bench subsets stay gateable); a non-positive ratio
// disables that gate.
func Compare(base, cur *Set, maxTimeRatio, maxAllocRatio float64) []Delta {
	var out []Delta
	for _, b := range base.Benchmarks {
		c, ok := cur.Lookup(b.Name)
		if !ok {
			continue
		}
		d := Delta{
			Name:       b.Name,
			Base:       b,
			Cur:        c,
			TimeRatio:  ratio(c.NsPerOp, b.NsPerOp),
			AllocRatio: ratio(c.AllocsPerOp, b.AllocsPerOp),
			BytesRatio: ratio(c.BytesPerOp, b.BytesPerOp),
		}
		switch {
		case maxTimeRatio > 0 && d.TimeRatio > maxTimeRatio:
			d.Violation = fmt.Sprintf("time %.2fx > %.2fx", d.TimeRatio, maxTimeRatio)
		case maxAllocRatio > 0 && d.AllocRatio > maxAllocRatio:
			d.Violation = fmt.Sprintf("allocs %.2fx > %.2fx", d.AllocRatio, maxAllocRatio)
		case maxAllocRatio > 0 && d.BytesRatio > maxAllocRatio:
			d.Violation = fmt.Sprintf("bytes %.2fx > %.2fx", d.BytesRatio, maxAllocRatio)
		}
		out = append(out, d)
	}
	return out
}

func ratio(cur, base float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return cur / base
}
