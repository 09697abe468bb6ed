package stats

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

var (
	preOp = Period{
		Name:  "pre-operational",
		Start: time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2022, 10, 1, 0, 0, 0, 0, time.UTC),
	}
	op = Period{
		Name:  "operational",
		Start: time.Date(2022, 10, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2025, 3, 14, 0, 0, 0, 0, time.UTC),
	}
)

func TestPeriodHours(t *testing.T) {
	if got := preOp.Hours(); math.Abs(got-273*24) > 1e-9 {
		t.Fatalf("pre-op hours = %v, want %v", got, 273*24)
	}
	if got := op.Days(); math.Abs(got-895) > 1e-9 {
		t.Fatalf("op days = %v, want 895", got)
	}
}

func TestPeriodContains(t *testing.T) {
	if !preOp.Contains(preOp.Start) {
		t.Fatal("start should be contained")
	}
	if preOp.Contains(preOp.End) {
		t.Fatal("end should be excluded")
	}
	if preOp.Contains(op.End) {
		t.Fatal("later time contained")
	}
}

func TestPeriodValidate(t *testing.T) {
	bad := Period{Name: "bad", Start: op.End, End: op.Start}
	if bad.Validate() == nil {
		t.Fatal("inverted period validated")
	}
	if preOp.Validate() != nil {
		t.Fatal("valid period rejected")
	}
}

// TestComputeMTBEMatchesPaperTableI checks the MTBE arithmetic against cells
// of Table I: op-period MMU (8,863 errors -> 2.4 h system / 257 h per node),
// pre-op MMU (1,078 -> 6.1 / 649), op GSP (3,857 -> 5.6 / 590).
func TestComputeMTBEMatchesPaperTableI(t *testing.T) {
	const nodes = 106
	cases := []struct {
		name    string
		period  Period
		count   int
		sys     float64
		perNode float64
	}{
		{"op MMU", op, 8863, 2.4, 257},
		{"pre-op MMU", preOp, 1078, 6.1, 649},
		{"op GSP", op, 3857, 5.6, 590},
		{"op NVLink", op, 1922, 11, 1185},
		{"op PMU", op, 77, 279, 29569},
		{"pre-op uncorrectable ECC", preOp, 46, 143, 15208},
	}
	for _, tc := range cases {
		got, err := ComputeMTBE(tc.count, tc.period, nodes)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if math.Abs(got.SystemWide-tc.sys) > 0.051*tc.sys {
			t.Errorf("%s: system MTBE = %.2f, want ~%.1f", tc.name, got.SystemWide, tc.sys)
		}
		if math.Abs(got.PerNode-tc.perNode) > 0.051*tc.perNode {
			t.Errorf("%s: per-node MTBE = %.0f, want ~%.0f", tc.name, got.PerNode, tc.perNode)
		}
	}
}

// TestPerNodeMTBEDegradation reproduces finding (i): 199 h pre-op vs 154 h
// op, a 23% reduction (burst-excluded counts 3,505 and 14,821).
func TestPerNodeMTBEDegradation(t *testing.T) {
	pre, err := ComputeMTBE(3505, preOp, 106)
	if err != nil {
		t.Fatal(err)
	}
	post, err := ComputeMTBE(14821, op, 106)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pre.PerNode-199) > 2 {
		t.Fatalf("pre-op per-node MTBE = %.1f, want ~199", pre.PerNode)
	}
	if math.Abs(post.PerNode-154) > 2 {
		t.Fatalf("op per-node MTBE = %.1f, want ~154", post.PerNode)
	}
	reduction := 1 - post.PerNode/pre.PerNode
	if math.Abs(reduction-0.23) > 0.015 {
		t.Fatalf("reduction = %.3f, want ~0.23", reduction)
	}
}

func TestComputeMTBEErrors(t *testing.T) {
	if _, err := ComputeMTBE(0, op, 106); !errors.Is(err, ErrNoEvents) {
		t.Fatalf("zero count err = %v", err)
	}
	if _, err := ComputeMTBE(10, op, 0); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := ComputeMTBE(10, Period{Start: op.End, End: op.Start}, 106); err == nil {
		t.Fatal("inverted period accepted")
	}
}

// TestAvailabilityMatchesPaper reproduces §V-C: MTTF 162 h, MTTR 0.88 h ->
// 99.5% availability, ~7 minutes downtime per day.
func TestAvailabilityMatchesPaper(t *testing.T) {
	a, err := Availability(162, 0.88)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-0.995) > 0.001 {
		t.Fatalf("availability = %.4f, want ~0.995", a)
	}
	down := DowntimePerDay(a)
	if down < 7*time.Minute || down > 8*time.Minute {
		t.Fatalf("downtime per day = %v, want ~7-8 min", down)
	}
}

func TestAvailabilityErrors(t *testing.T) {
	if _, err := Availability(0, 1); err == nil {
		t.Fatal("zero MTTF accepted")
	}
	if _, err := Availability(1, -1); err == nil {
		t.Fatal("negative MTTR accepted")
	}
}

func TestDowntimePerDayEdges(t *testing.T) {
	if DowntimePerDay(1) != 0 {
		t.Fatal("perfect availability should have zero downtime")
	}
	if DowntimePerDay(-0.5) != 24*time.Hour {
		t.Fatal("clamped availability should yield full-day downtime")
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	s := Summarize(xs)
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Sum != 10 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Mean-2.5) > 1e-12 || math.Abs(s.P50-2.5) > 1e-12 {
		t.Fatalf("mean/p50 = %v/%v", s.Mean, s.P50)
	}
	// Summarize sorts its argument in place, and summarizing the sorted
	// slice again gives the same Summary.
	if !sort.Float64sAreSorted(xs) {
		t.Fatalf("argument not sorted in place: %v", xs)
	}
	if again := Summarize(xs); again != s {
		t.Fatalf("summary of the sorted slice = %+v, want %+v", again, s)
	}
	zero := Summarize(nil)
	if zero.N != 0 {
		t.Fatalf("empty summary = %+v", zero)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	if got := Percentile(xs, 0); got != 10 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 50 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 30 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(xs, 25); got != 20 {
		t.Fatalf("p25 = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile should be NaN")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(xs, pa) <= Percentile(xs, pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, 0, 1.9, 2, 9.999, 10, 100} {
		h.Add(x)
	}
	if h.Underflow != 1 || h.Overflow != 2 {
		t.Fatalf("under/over = %d/%d", h.Underflow, h.Overflow)
	}
	if h.Counts[0] != 2 { // 0 and 1.9
		t.Fatalf("bucket0 = %d", h.Counts[0])
	}
	if h.Counts[1] != 1 || h.Counts[4] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if h.TotalCount != 7 {
		t.Fatalf("total = %d", h.TotalCount)
	}
	lo, hi := h.BucketBounds(1)
	if lo != 2 || hi != 4 {
		t.Fatalf("bounds = [%v, %v)", lo, hi)
	}
	cdf := h.CDF()
	if cdf[len(cdf)-1] >= 1 { // overflow excluded
		t.Fatalf("cdf tail = %v", cdf[len(cdf)-1])
	}
	if cdf[0] != 3.0/7 {
		t.Fatalf("cdf[0] = %v", cdf[0])
	}
}

func TestHistogramInvalid(t *testing.T) {
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Fatal("degenerate range accepted")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Fatal("zero buckets accepted")
	}
}

func TestHistogramCDFEmpty(t *testing.T) {
	h, err := NewHistogram(0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range h.CDF() {
		if v != 0 {
			t.Fatal("empty histogram CDF should be zero")
		}
	}
}

// TestMemoryVsHardwareRatio reproduces finding (ii)'s arithmetic: 92 memory
// errors vs 14,729 hardware+interconnect errors in the op period gives the
// paper's ~160x per-node MTBE ratio.
func TestMemoryVsHardwareRatio(t *testing.T) {
	mem, err := ComputeMTBE(92, op, 106)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := ComputeMTBE(14729, op, 106)
	if err != nil {
		t.Fatal(err)
	}
	ratio := mem.PerNode / hw.PerNode
	if math.Abs(ratio-160) > 2 {
		t.Fatalf("memory/hardware MTBE ratio = %.1f, want ~160", ratio)
	}
	if RatioString(mem.PerNode, hw.PerNode) != "160x" {
		t.Fatalf("RatioString = %s", RatioString(mem.PerNode, hw.PerNode))
	}
	if RatioString(1, 0) != "inf" {
		t.Fatal("RatioString division by zero")
	}
}
