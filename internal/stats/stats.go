// Package stats implements the reliability statistics of the paper's
// analysis stage: error counts, system-wide and per-node mean time between
// errors (MTBE), distribution summaries, histograms, and availability
// arithmetic.
//
// The MTBE conventions follow §III-B and Table I exactly: the system-wide
// MTBE over a measurement period is the period length in hours divided by the
// coalesced error count, and the per-node MTBE is the system-wide MTBE
// multiplied by the number of nodes.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// Period is a measurement window, e.g. Delta's pre-operational or
// operational period.
type Period struct {
	Name  string    // label used in tables, e.g. "operational"
	Start time.Time // inclusive window start
	End   time.Time // exclusive window end
}

// Hours returns the period length in hours.
func (p Period) Hours() float64 { return p.End.Sub(p.Start).Hours() }

// Days returns the period length in days.
func (p Period) Days() float64 { return p.End.Sub(p.Start).Hours() / 24 }

// Contains reports whether t falls within [Start, End).
func (p Period) Contains(t time.Time) bool {
	return !t.Before(p.Start) && t.Before(p.End)
}

// Validate returns an error if the period is empty or inverted.
func (p Period) Validate() error {
	if !p.Start.Before(p.End) {
		return fmt.Errorf("stats: period %q has non-positive length", p.Name)
	}
	return nil
}

// MTBE holds mean-time-between-errors figures in hours.
type MTBE struct {
	SystemWide float64 // hours between errors anywhere in the system
	PerNode    float64 // hours a single node runs before an error
}

// ErrNoEvents is returned when an MTBE is requested for a zero count; the
// paper renders these cells as "-".
var ErrNoEvents = errors.New("stats: no events in period")

// ComputeMTBE returns MTBE figures for count errors observed over period on a
// system of nodes nodes.
func ComputeMTBE(count int, period Period, nodes int) (MTBE, error) {
	if err := period.Validate(); err != nil {
		return MTBE{}, err
	}
	if nodes <= 0 {
		return MTBE{}, fmt.Errorf("stats: non-positive node count %d", nodes)
	}
	if count <= 0 {
		return MTBE{}, ErrNoEvents
	}
	sys := period.Hours() / float64(count)
	return MTBE{SystemWide: sys, PerNode: sys * float64(nodes)}, nil
}

// Availability returns MTTF/(MTTF+MTTR). Units must match; the result is a
// fraction in (0, 1].
func Availability(mttf, mttr float64) (float64, error) {
	if mttf <= 0 || mttr < 0 {
		return 0, fmt.Errorf("stats: invalid MTTF %v / MTTR %v", mttf, mttr)
	}
	return mttf / (mttf + mttr), nil
}

// DowntimePerDay converts an availability fraction into downtime per day.
func DowntimePerDay(availability float64) time.Duration {
	if availability >= 1 {
		return 0
	}
	if availability < 0 {
		availability = 0
	}
	return time.Duration((1 - availability) * float64(24*time.Hour))
}

// Summary captures the distribution summary used by Table III (mean, median,
// 99th percentile) plus extremes.
type Summary struct {
	N    int     // sample count
	Mean float64 // arithmetic mean
	P50  float64 // median
	P99  float64 // 99th percentile
	Min  float64 // smallest sample
	Max  float64 // largest sample
	Sum  float64 // total of all samples
}

// Summarize computes a Summary of xs, sorting xs in place (ascending) and
// summing it in that order; callers pass a slice they own and may not rely
// on its original order afterwards. It returns a zero Summary for empty
// input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sort.Float64s(xs)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return Summary{
		N:    len(xs),
		Mean: sum / float64(len(xs)),
		P50:  Percentile(xs, 50),
		P99:  Percentile(xs, 99),
		Min:  xs[0],
		Max:  xs[len(xs)-1],
		Sum:  sum,
	}
}

// Percentile returns the p-th percentile (0-100) of sorted, using linear
// interpolation between closest ranks. sorted must be ascending; it returns
// NaN for empty input.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Histogram is a fixed-bucket histogram over [Min, Max) with overflow and
// underflow buckets, used to render Figure 2.
type Histogram struct {
	Min, Max   float64 // bucketed range; values land in [Min, Max)
	Counts     []int   // per-bucket counts, evenly spanning [Min, Max)
	Underflow  int     // samples below Min
	Overflow   int     // samples at or above Max
	TotalCount int     // all samples, including under/overflow
}

// NewHistogram returns a histogram with n buckets spanning [min, max).
func NewHistogram(min, max float64, n int) (*Histogram, error) {
	if n <= 0 || max <= min {
		return nil, fmt.Errorf("stats: invalid histogram [%v, %v) x%d", min, max, n)
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, n)}, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.TotalCount++
	switch {
	case x < h.Min:
		h.Underflow++
	case x >= h.Max:
		h.Overflow++
	default:
		i := int((x - h.Min) / (h.Max - h.Min) * float64(len(h.Counts)))
		if i >= len(h.Counts) { // guard against floating-point edge
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// BucketBounds returns the [lo, hi) bounds of bucket i.
func (h *Histogram) BucketBounds(i int) (lo, hi float64) {
	width := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + float64(i)*width, h.Min + float64(i+1)*width
}

// CDF returns the cumulative fraction of observations at or below each
// bucket's upper bound (underflow included, overflow excluded from all but
// implied tail).
func (h *Histogram) CDF() []float64 {
	out := make([]float64, len(h.Counts))
	if h.TotalCount == 0 {
		return out
	}
	cum := h.Underflow
	for i, c := range h.Counts {
		cum += c
		out[i] = float64(cum) / float64(h.TotalCount)
	}
	return out
}

// RatioString formats a ratio like the paper's "160x" comparisons.
func RatioString(num, den float64) string {
	if den == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.0fx", num/den)
}
