// Package survival extends the study with the survival-analysis methodology
// of the Titan GPU-lifetimes work the paper cites ([24] Ostrouchov et al.,
// SC20): Kaplan-Meier survival curves over right-censored device lifetimes
// and maximum-likelihood Weibull fits of inter-error times. A Weibull shape
// below 1 indicates infant mortality (defective devices fail early), near 1
// a memoryless process, above 1 wear-out.
package survival

import (
	"errors"
	"math"
	"sort"

	"gpuresilience/internal/stats"
	"gpuresilience/internal/xid"
)

// Observation is one (possibly right-censored) duration in hours.
type Observation struct {
	Hours    float64 // observed duration, or censoring time
	Censored bool    // true when the event had not occurred by Hours
}

// KMPoint is one step of a Kaplan-Meier survival curve.
type KMPoint struct {
	TimeHours float64 // event time the step occurs at
	Survival  float64 // S(t) just after the step
	AtRisk    int     // subjects still under observation at t
	Events    int     // events occurring exactly at t
}

// KaplanMeier estimates the survival function from right-censored
// observations. Points are returned at each distinct event time.
func KaplanMeier(obs []Observation) ([]KMPoint, error) {
	if len(obs) == 0 {
		return nil, errors.New("survival: no observations")
	}
	sorted := make([]Observation, len(obs))
	copy(sorted, obs)
	for _, o := range sorted {
		if o.Hours < 0 || math.IsNaN(o.Hours) {
			return nil, errors.New("survival: negative or NaN observation")
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Hours < sorted[j].Hours })

	var curve []KMPoint
	surv := 1.0
	atRisk := len(sorted)
	i := 0
	for i < len(sorted) {
		t := sorted[i].Hours
		events, censored := 0, 0
		for i < len(sorted) && sorted[i].Hours == t {
			if sorted[i].Censored {
				censored++
			} else {
				events++
			}
			i++
		}
		if events > 0 {
			surv *= 1 - float64(events)/float64(atRisk)
			curve = append(curve, KMPoint{TimeHours: t, Survival: surv, AtRisk: atRisk, Events: events})
		}
		atRisk -= events + censored
	}
	return curve, nil
}

// MedianSurvival returns the time at which the survival curve crosses 0.5,
// or NaN if it never does (more than half the population is censored).
func MedianSurvival(curve []KMPoint) float64 {
	for _, p := range curve {
		if p.Survival <= 0.5 {
			return p.TimeHours
		}
	}
	return math.NaN()
}

// Weibull is a fitted Weibull distribution.
type Weibull struct {
	Shape float64 // k
	Scale float64 // lambda
}

// FitWeibull computes the MLE of an uncensored Weibull sample. All samples
// must be positive.
func FitWeibull(samples []float64) (Weibull, error) {
	if len(samples) < 3 {
		return Weibull{}, errors.New("survival: need at least 3 samples")
	}
	var sumLn float64
	for _, x := range samples {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return Weibull{}, errors.New("survival: samples must be positive and finite")
		}
		sumLn += math.Log(x)
	}
	meanLn := sumLn / float64(len(samples))

	// MLE score for shape k:
	//   g(k) = sum(x^k ln x)/sum(x^k) - 1/k - mean(ln x)
	// g is increasing in k; bisect on [1e-3, 100].
	g := func(k float64) float64 {
		var num, den float64
		for _, x := range samples {
			xk := math.Pow(x, k)
			num += xk * math.Log(x)
			den += xk
		}
		return num/den - 1/k - meanLn
	}
	lo, hi := 1e-3, 100.0
	if g(lo) > 0 || g(hi) < 0 {
		return Weibull{}, errors.New("survival: degenerate sample (zero variance?)")
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if g(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	k := (lo + hi) / 2
	var sumXk float64
	for _, x := range samples {
		sumXk += math.Pow(x, k)
	}
	lambda := math.Pow(sumXk/float64(len(samples)), 1/k)
	return Weibull{Shape: k, Scale: lambda}, nil
}

// Mean returns the distribution mean lambda*Gamma(1+1/k).
func (w Weibull) Mean() float64 {
	return w.Scale * math.Gamma(1+1/w.Shape)
}

// Survival returns P(X > t).
func (w Weibull) Survival(t float64) float64 {
	if t <= 0 {
		return 1
	}
	return math.Exp(-math.Pow(t/w.Scale, w.Shape))
}

// Hazard returns the instantaneous failure rate at t.
func (w Weibull) Hazard(t float64) float64 {
	if t <= 0 {
		return math.NaN()
	}
	return w.Shape / w.Scale * math.Pow(t/w.Scale, w.Shape-1)
}

// InterEventHours extracts per-device inter-error gaps (hours) from a
// coalesced event stream, restricted to codes selected by keep (nil keeps
// every studied code). Gaps are the raw material for the Weibull fit.
func InterEventHours(events []xid.Event, keep func(xid.Code) bool) []float64 {
	byDevice := make(map[gpuKey][]float64) // times in hours since epoch
	for _, ev := range events {
		if keep != nil && !keep(ev.Code) {
			continue
		}
		if keep == nil && !ev.Code.InStats() {
			continue
		}
		k := gpuKey{ev.Node, ev.GPU}
		byDevice[k] = append(byDevice[k], float64(ev.Time)/float64(3600e9))
	}
	var gaps []float64
	for _, times := range byDevice {
		sort.Float64s(times)
		for i := 1; i < len(times); i++ {
			if gap := times[i] - times[i-1]; gap > 0 {
				gaps = append(gaps, gap)
			}
		}
	}
	sort.Float64s(gaps)
	return gaps
}

type gpuKey struct {
	node string
	gpu  int32
}

// DeviceLifetimes builds right-censored first-failure lifetimes: for every
// device in the fleet, the time from period start to its first fatal error,
// censored at period end for devices that never failed.
func DeviceLifetimes(events []xid.Event, period stats.Period, fleet []xid.Key,
	fatal func(xid.Code) bool) ([]Observation, error) {
	if err := period.Validate(); err != nil {
		return nil, err
	}
	if len(fleet) == 0 {
		return nil, errors.New("survival: empty fleet")
	}
	first := make(map[gpuKey]float64, len(fleet))
	for _, ev := range events {
		at := ev.Time.Time()
		if !period.Contains(at) || !fatal(ev.Code) {
			continue
		}
		k := gpuKey{ev.Node, ev.GPU}
		t := at.Sub(period.Start).Hours()
		if cur, ok := first[k]; !ok || t < cur {
			first[k] = t
		}
	}
	obs := make([]Observation, 0, len(fleet))
	horizon := period.Hours()
	for _, dev := range fleet {
		k := gpuKey{dev.Node, dev.GPU}
		if t, ok := first[k]; ok {
			obs = append(obs, Observation{Hours: t})
		} else {
			obs = append(obs, Observation{Hours: horizon, Censored: true})
		}
	}
	return obs, nil
}
