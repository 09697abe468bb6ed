// Package avail implements the study's availability analysis (§V-C, Figure
// 2): the distribution of node unavailability intervals (MTTR), cumulative
// lost node hours, MTTF derived from the error stream under the paper's
// conservative assumption that every GPU error interrupts the node, and the
// resulting availability figure.
package avail

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"gpuresilience/internal/stats"
)

// Analysis is the availability result set.
type Analysis struct {
	// Repairs is the number of unavailability intervals observed.
	Repairs int
	// MTTRHours is the mean unavailability interval (the paper reports
	// 0.88 h).
	MTTRHours float64
	// MedianHours and P99Hours summarize the Figure 2 distribution.
	MedianHours float64
	P99Hours    float64 // see MedianHours
	// LostNodeHours is the cumulative downtime (the paper reports ~5,700).
	LostNodeHours float64
	// MTTFHours is period-hours x nodes / error count (162 h in the paper).
	MTTFHours float64
	// Availability is MTTF/(MTTF+MTTR) (99.5% in the paper).
	Availability float64
	// DowntimePerDay is the equivalent per-node downtime per day (~7 min).
	DowntimePerDay time.Duration
	// Histogram buckets the repair durations in hours for Figure 2.
	Histogram *stats.Histogram
	// Period and ErrorCount are the Config values the analysis ran with;
	// a zero ErrorCount leaves MTTF and availability unset.
	Period     stats.Period
	ErrorCount int // see Period
}

// Config parameterizes the analysis.
type Config struct {
	Period stats.Period // the window downtime is measured over
	Nodes  int          // fleet size, the availability denominator
	// ErrorCount is the total coalesced GPU error count over the period,
	// used for the conservative MTTF estimate.
	ErrorCount int
	// HistMaxHours and HistBuckets shape the Figure 2 histogram.
	HistMaxHours float64
	HistBuckets  int // see HistMaxHours
}

// DefaultConfig returns the paper's analysis settings.
func DefaultConfig(period stats.Period, nodes, errorCount int) Config {
	return Config{
		Period:       period,
		Nodes:        nodes,
		ErrorCount:   errorCount,
		HistMaxHours: 6,
		HistBuckets:  24,
	}
}

// NodeAvailability is one node's availability over the period.
type NodeAvailability struct {
	Node         string  // fleet node name
	DownHours    float64 // total unavailability over the period
	Availability float64 // 1 - DownHours / period hours
}

// PerNode computes per-node availability from per-node downtime totals.
// Nodes in fleet but absent from downHours were never down. Results are
// sorted worst-first.
func PerNode(downHours map[string]float64, period stats.Period, fleet []string) ([]NodeAvailability, error) {
	if err := period.Validate(); err != nil {
		return nil, err
	}
	if len(fleet) == 0 {
		return nil, errors.New("avail: empty fleet")
	}
	total := period.Hours()
	out := make([]NodeAvailability, 0, len(fleet))
	seen := make(map[string]bool, len(fleet))
	for _, node := range fleet {
		if seen[node] {
			return nil, fmt.Errorf("avail: duplicate fleet node %q", node)
		}
		seen[node] = true
		down := downHours[node]
		if down < 0 {
			return nil, fmt.Errorf("avail: negative downtime for %q", node)
		}
		if down > total {
			down = total
		}
		out = append(out, NodeAvailability{
			Node:         node,
			DownHours:    down,
			Availability: 1 - down/total,
		})
	}
	for node := range downHours {
		if !seen[node] {
			return nil, fmt.Errorf("avail: downtime for unknown node %q", node)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Availability != out[j].Availability {
			return out[i].Availability < out[j].Availability
		}
		return out[i].Node < out[j].Node
	})
	return out, nil
}

// Analyze computes availability statistics from repair intervals.
func Analyze(repairs []time.Duration, cfg Config) (Analysis, error) {
	if err := cfg.Period.Validate(); err != nil {
		return Analysis{}, err
	}
	if cfg.Nodes <= 0 {
		return Analysis{}, errors.New("avail: non-positive node count")
	}
	if cfg.HistMaxHours <= 0 || cfg.HistBuckets <= 0 {
		return Analysis{}, errors.New("avail: invalid histogram shape")
	}

	hist, err := stats.NewHistogram(0, cfg.HistMaxHours, cfg.HistBuckets)
	if err != nil {
		return Analysis{}, err
	}
	hours := make([]float64, 0, len(repairs))
	for _, d := range repairs {
		if d < 0 {
			return Analysis{}, fmt.Errorf("avail: negative repair interval %v", d)
		}
		h := d.Hours()
		hours = append(hours, h)
		hist.Add(h)
	}
	s := stats.Summarize(hours)

	out := Analysis{
		Repairs:       s.N,
		MTTRHours:     s.Mean,
		MedianHours:   s.P50,
		P99Hours:      s.P99,
		LostNodeHours: s.Sum,
		Histogram:     hist,
		Period:        cfg.Period,
		ErrorCount:    cfg.ErrorCount,
	}
	if cfg.ErrorCount > 0 {
		mtbe, err := stats.ComputeMTBE(cfg.ErrorCount, cfg.Period, cfg.Nodes)
		if err != nil {
			return Analysis{}, err
		}
		out.MTTFHours = mtbe.PerNode
		if out.Repairs > 0 {
			a, err := stats.Availability(out.MTTFHours, out.MTTRHours)
			if err != nil {
				return Analysis{}, err
			}
			out.Availability = a
			out.DowntimePerDay = stats.DowntimePerDay(a)
		} else {
			out.Availability = 1
		}
	}
	return out, nil
}
