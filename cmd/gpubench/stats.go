package main

import (
	"math"
	"sort"
)

// summary is one metric as a result file records it: the median the gate
// compares, the quartiles that say how far it can be trusted, the sample
// count, and the highest tail percentile with at least ten samples beyond
// it (empty when there are fewer than 100 samples).
type summary struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	N       int     `json:"n"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Tail    string  `json:"tail,omitempty"`
	TailVal float64 `json:"tail_value,omitempty"`
}

// summarize reduces samples to a summary. A single sample is its own
// median and quartiles.
func summarize(samples []float64, unit string) summary {
	s := sorted(samples)
	q1, q3 := quartiles(s)
	out := summary{Value: median(s), Unit: unit, N: len(s), Q1: q1, Q3: q3}
	for _, t := range []struct {
		name string
		p    float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if float64(len(s))*(1-t.p) >= 10 {
			out.Tail, out.TailVal = t.name, percentile(s, t.p)
			break
		}
	}
	return out
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise a difference must exceed before it means anything.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Value)
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of sorted samples.
func median(s []float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles of sorted samples by the exclusive method, the default of
// Python's statistics.quantiles(n=4), so spreads read the same as any
// script that checks them with it.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	if n < 2 {
		m := median(s)
		return m, m
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile of sorted samples by nearest rank.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
