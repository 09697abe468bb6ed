package benchfmt

import (
	"math"
	"strings"
	"testing"
)

const sampleOut = `goos: linux
goarch: amd64
pkg: gpuresilience
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkExtractParallel/workers=1-2         	       5	 223605930 ns/op	  36.23 MB/s	 5123456 B/op	   41234 allocs/op
BenchmarkExtractParallel/workers=1-2         	       5	 230000000 ns/op	  35.10 MB/s	 5200000 B/op	   41000 allocs/op
BenchmarkExtractParallel/workers=1-2         	       5	 220000000 ns/op	  36.90 MB/s	 5100000 B/op	   41500 allocs/op
BenchmarkStageIExtract 	 1000000	      2085 ns/op	       0 B/op	       0 allocs/op
BenchmarkJobDBLoad-4   	      10	 128000000 ns/op	  47.00 MB/s	60832054 B/op	  768564 allocs/op
PASS
ok  	gpuresilience	12.3s
`

func TestParse(t *testing.T) {
	set, err := Parse(strings.NewReader(sampleOut))
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks: %+v", len(set.Benchmarks), set.Benchmarks)
	}
	// GOMAXPROCS suffixes are stripped: -2 and -4 tagged names normalize.
	ep, ok := set.Lookup("BenchmarkExtractParallel/workers=1")
	if !ok {
		t.Fatal("workers=1 not found after suffix strip")
	}
	if ep.Runs != 3 {
		t.Fatalf("runs = %d, want 3", ep.Runs)
	}
	if ep.NsPerOp != 223605930 { // median of the three
		t.Fatalf("ns/op = %v, want median 223605930", ep.NsPerOp)
	}
	if ep.AllocsPerOp != 41234 {
		t.Fatalf("allocs/op = %v", ep.AllocsPerOp)
	}
	// A no-suffix name (GOMAXPROCS=1 machine) parses as-is.
	st, ok := set.Lookup("BenchmarkStageIExtract")
	if !ok || st.NsPerOp != 2085 || st.AllocsPerOp != 0 {
		t.Fatalf("StageIExtract = %+v ok=%v", st, ok)
	}
	if _, ok := set.Lookup("BenchmarkJobDBLoad"); !ok {
		t.Fatal("JobDBLoad not found")
	}
}

// TestParseMachine checks that the go test header becomes the Set's
// Machine, that its first pkg line wins, that input without a header has
// no Machine, and that Compare ignores the Machine.
func TestParseMachine(t *testing.T) {
	set, err := Parse(strings.NewReader(sampleOut + "pkg: gpuresilience/internal/impact\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := Machine{GOOS: "linux", GOARCH: "amd64", Pkg: "gpuresilience",
		CPU: "Intel(R) Xeon(R) Processor @ 2.10GHz"}
	if set.Machine == nil || *set.Machine != want {
		t.Fatalf("machine = %+v, want %+v", set.Machine, want)
	}
	bare, err := Parse(strings.NewReader("BenchmarkX 1 5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if bare.Machine != nil {
		t.Fatalf("headerless run has machine %+v", bare.Machine)
	}
	other := *set
	other.Machine = &Machine{GOOS: "darwin", NumCPU: 64, GOMAXPROCS: 64, GoVersion: "go1.99"}
	for _, d := range Compare(set, &other, 1.01, 1.01) {
		if d.Violation != "" || d.TimeRatio != 1 || d.AllocRatio != 1 || d.BytesRatio != 1 {
			t.Fatalf("machine moved the comparison: %+v", d)
		}
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestMedianEven(t *testing.T) {
	if m := median([]float64{1, 3}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("median(nil) = %v", m)
	}
}

func mkSet(ns, allocs, bytes float64) *Set {
	return &Set{Benchmarks: []Result{{
		Name: "BenchmarkX", Runs: 1, NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes,
	}}}
}

func TestCompareGates(t *testing.T) {
	base := mkSet(100, 1000, 4096)
	cases := []struct {
		name      string
		cur       *Set
		violation bool
	}{
		{"within", mkSet(110, 1000, 4096), false},
		{"faster", mkSet(50, 100, 100), false},
		{"time regression", mkSet(200, 1000, 4096), true},
		{"alloc regression", mkSet(100, 2000, 4096), true},
		{"bytes regression", mkSet(100, 1000, 10000), true},
	}
	for _, tc := range cases {
		deltas := Compare(base, tc.cur, 1.6, 1.15)
		if len(deltas) != 1 {
			t.Fatalf("%s: %d deltas", tc.name, len(deltas))
		}
		if got := deltas[0].Violation != ""; got != tc.violation {
			t.Fatalf("%s: violation=%q, want violation=%v", tc.name, deltas[0].Violation, tc.violation)
		}
	}
}

func TestCompareSkipsMissing(t *testing.T) {
	base := &Set{Benchmarks: []Result{
		{Name: "BenchmarkA", NsPerOp: 1},
		{Name: "BenchmarkB", NsPerOp: 1},
	}}
	cur := &Set{Benchmarks: []Result{{Name: "BenchmarkB", NsPerOp: 1}}}
	deltas := Compare(base, cur, 1.6, 1.15)
	if len(deltas) != 1 || deltas[0].Name != "BenchmarkB" {
		t.Fatalf("deltas = %+v", deltas)
	}
}

func TestCompareZeroBase(t *testing.T) {
	// 0 -> 0 is a clean pass; 0 -> nonzero is an infinite-ratio violation.
	deltas := Compare(mkSet(100, 0, 0), mkSet(100, 0, 0), 1.6, 1.15)
	if deltas[0].Violation != "" || deltas[0].AllocRatio != 1 {
		t.Fatalf("0->0 delta = %+v", deltas[0])
	}
	deltas = Compare(mkSet(100, 0, 0), mkSet(100, 5, 0), 1.6, 1.15)
	if deltas[0].Violation == "" || !math.IsInf(deltas[0].AllocRatio, 1) {
		t.Fatalf("0->5 delta = %+v", deltas[0])
	}
}
