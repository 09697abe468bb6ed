package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"gpuresilience/internal/avail"
	"gpuresilience/internal/cluster"
)

// DownHoursByNode sums each node's down hours over the downtimes whose
// start keep accepts; a nil keep accepts every downtime. The result feeds
// WriteAvailability's worst-node list and the extensions' per-node spread.
func DownHoursByNode(downtimes []cluster.NodeDowntime, keep func(time.Time) bool) map[string]float64 {
	out := make(map[string]float64, len(downtimes))
	for _, d := range downtimes {
		if keep == nil || keep(d.Start) {
			out[d.Node] += d.Duration().Hours()
		}
	}
	return out
}

// WriteAvailability renders the §V-C availability analysis the way the
// availability CLI always has: the repair/MTTR summary line, the MTTF line
// when an error count was available, the Figure 2 unavailability histogram,
// and the worst-node list. It is the single renderer behind both the batch
// CLI and the streaming daemon's /v1/tables/availability text endpoint, so
// the two are byte-identical by construction.
//
// downByNode maps node name to total down hours; pass nil to omit the
// worst-node section, whose per-node availability is over a.Period. The
// MTTF/availability line is printed only when the analysis had an error
// count (the batch CLI has one only when a system log supplied it).
func WriteAvailability(w io.Writer, a avail.Analysis, downByNode map[string]float64) error {
	if _, err := fmt.Fprintf(w, "Repairs: %d  MTTR %.2f h (median %.2f, p99 %.2f)  lost node-hours %.0f\n",
		a.Repairs, a.MTTRHours, a.MedianHours, a.P99Hours, a.LostNodeHours); err != nil {
		return err
	}
	if a.ErrorCount > 0 {
		if _, err := fmt.Fprintf(w, "MTTF %.0f h  availability %.2f%%  downtime/day %s\n",
			a.MTTFHours, 100*a.Availability, a.DowntimePerDay.Round(0)); err != nil {
			return err
		}
	}
	h := a.Histogram
	maxCount := 1
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if _, err := fmt.Fprintln(w, "\nFigure 2: unavailability time distribution"); err != nil {
		return err
	}
	for i, c := range h.Counts {
		lo, hi := h.BucketBounds(i)
		if _, err := fmt.Fprintf(w, "%5.2f-%5.2f h | %-50s %d\n", lo, hi,
			strings.Repeat("#", c*50/maxCount), c); err != nil {
			return err
		}
	}
	if h.Overflow > 0 {
		if _, err := fmt.Fprintf(w, "     >%.2f h | %d\n", h.Max, h.Overflow); err != nil {
			return err
		}
	}

	// Per-node availability spread over the full period.
	fleet := make([]string, 0, len(downByNode))
	for node := range downByNode {
		fleet = append(fleet, node)
	}
	sort.Strings(fleet)
	if len(fleet) == 0 {
		return nil
	}
	rows, err := avail.PerNode(downByNode, a.Period, fleet)
	if err != nil {
		return err
	}
	n := 3
	if len(rows) < n {
		n = len(rows)
	}
	if _, err := fmt.Fprintf(w, "\nWorst nodes (of %d with any downtime):\n", len(rows)); err != nil {
		return err
	}
	for _, r := range rows[:n] {
		if _, err := fmt.Fprintf(w, "  %s: %.3f%% (%.1f h down)\n", r.Node, 100*r.Availability, r.DownHours); err != nil {
			return err
		}
	}
	return nil
}
