// Package correlation extends the study with the burstiness and spatial
// concentration analyses common to HPC failure studies (Blue Waters, Titan):
// Fano factors of the error-count process, coefficient of variation of
// inter-arrival times, node-level concentration (top-k share, Gini), and
// cross-kind lag correlation (the PMU->MMU propagation signal the paper
// reports in finding iv).
package correlation

import (
	"errors"
	"math"
	"sort"
	"time"

	"gpuresilience/internal/stats"
	"gpuresilience/internal/xid"
)

// FanoFactor returns the variance-to-mean ratio of per-bucket error counts
// over the period. A Poisson process has Fano factor 1; clustered (bursty)
// processes exceed it.
func FanoFactor(events []xid.Event, period stats.Period, bucket time.Duration) (float64, error) {
	if err := period.Validate(); err != nil {
		return 0, err
	}
	if bucket <= 0 {
		return 0, errors.New("correlation: non-positive bucket")
	}
	n := int(period.End.Sub(period.Start) / bucket)
	if n < 2 {
		return 0, errors.New("correlation: fewer than 2 buckets")
	}
	counts := make([]float64, n)
	for _, ev := range events {
		t := ev.Time.Time()
		if !period.Contains(t) {
			continue
		}
		i := int(t.Sub(period.Start) / bucket)
		if i >= 0 && i < n {
			counts[i]++
		}
	}
	var sum float64
	for _, c := range counts {
		sum += c
	}
	mean := sum / float64(n)
	if mean == 0 {
		return 0, errors.New("correlation: no events in period")
	}
	var ss float64
	for _, c := range counts {
		d := c - mean
		ss += d * d
	}
	variance := ss / float64(n-1)
	return variance / mean, nil
}

// InterArrivalCV returns the coefficient of variation (std/mean) of
// system-wide inter-arrival times. An exponential process has CV 1.
func InterArrivalCV(events []xid.Event) (float64, error) {
	if len(events) < 3 {
		return 0, errors.New("correlation: need at least 3 events")
	}
	times := make([]float64, len(events))
	for i, ev := range events {
		times[i] = float64(ev.Time)
	}
	sort.Float64s(times)
	gaps := make([]float64, 0, len(times)-1)
	for i := 1; i < len(times); i++ {
		gaps = append(gaps, times[i]-times[i-1])
	}
	var sum float64
	for _, g := range gaps {
		sum += g
	}
	mean := sum / float64(len(gaps))
	if mean == 0 {
		return 0, errors.New("correlation: all events simultaneous")
	}
	var ss float64
	for _, g := range gaps {
		d := g - mean
		ss += d * d
	}
	std := math.Sqrt(ss / float64(len(gaps)-1))
	return std / mean, nil
}

// NodeConcentration summarizes how unevenly errors spread across nodes.
type NodeConcentration struct {
	Nodes      int     // distinct nodes with >= 1 error
	Top1Share  float64 // fraction of errors on the worst node
	Top5Share  float64 // fraction of errors on the five worst nodes
	Gini       float64 // 0 = uniform, -> 1 = concentrated
	WorstNode  string  // the node with the most errors
	WorstCount int     // its error count
}

// ConcentrationByNode computes node-level error concentration. fleetSize is
// the total number of nodes (error-free nodes count toward the Gini).
func ConcentrationByNode(events []xid.Event, fleetSize int) (NodeConcentration, error) {
	if fleetSize <= 0 {
		return NodeConcentration{}, errors.New("correlation: non-positive fleet size")
	}
	if len(events) == 0 {
		return NodeConcentration{}, errors.New("correlation: no events")
	}
	byNode := make(map[string]int)
	for _, ev := range events {
		byNode[ev.Node]++
	}
	if len(byNode) > fleetSize {
		return NodeConcentration{}, errors.New("correlation: more error nodes than fleet size")
	}
	counts := make([]int, 0, fleetSize)
	var worst string
	worstCount := -1
	total := 0
	for node, c := range byNode {
		counts = append(counts, c)
		total += c
		if c > worstCount || (c == worstCount && node < worst) {
			worst, worstCount = node, c
		}
	}
	for len(counts) < fleetSize {
		counts = append(counts, 0)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))

	nc := NodeConcentration{
		Nodes:      len(byNode),
		WorstNode:  worst,
		WorstCount: worstCount,
	}
	nc.Top1Share = float64(counts[0]) / float64(total)
	top5 := 0
	for i := 0; i < 5 && i < len(counts); i++ {
		top5 += counts[i]
	}
	nc.Top5Share = float64(top5) / float64(total)
	nc.Gini = gini(counts)
	return nc, nil
}

// gini computes the Gini coefficient of non-negative integer counts.
func gini(counts []int) float64 {
	n := len(counts)
	if n == 0 {
		return 0
	}
	sorted := make([]int, n)
	copy(sorted, counts)
	sort.Ints(sorted)
	var cum, weighted float64
	for i, c := range sorted {
		cum += float64(c)
		weighted += float64(i+1) * float64(c)
	}
	if cum == 0 {
		return 0
	}
	return (2*weighted - float64(n+1)*cum) / (float64(n) * cum)
}

// LagCorrelation measures how often an event of kind b follows an event of
// kind a on the same device within the lag window — the signal behind the
// paper's PMU->MMU propagation finding. It returns the fraction of a-events
// followed by a b-event within the window.
func LagCorrelation(events []xid.Event, a, b xid.Code, window time.Duration) (float64, error) {
	if window <= 0 {
		return 0, errors.New("correlation: non-positive window")
	}
	type devKey struct {
		node string
		gpu  int32
	}
	aTimes := make(map[devKey][]xid.Time)
	bTimes := make(map[devKey][]xid.Time)
	for _, ev := range events {
		k := devKey{ev.Node, ev.GPU}
		switch ev.Code {
		case a:
			aTimes[k] = append(aTimes[k], ev.Time)
		case b:
			bTimes[k] = append(bTimes[k], ev.Time)
		}
	}
	total, followed := 0, 0
	for k, as := range aTimes {
		bs := bTimes[k]
		sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
		for _, at := range as {
			total++
			i := sort.Search(len(bs), func(i int) bool { return bs[i] >= at })
			if i < len(bs) && bs[i].Sub(at) <= window {
				followed++
			}
		}
	}
	if total == 0 {
		return 0, errors.New("correlation: no events of the leading kind")
	}
	return float64(followed) / float64(total), nil
}
