package report

import (
	"fmt"
	"io"
	"time"

	"gpuresilience/internal/stats"
	"gpuresilience/internal/xid"
)

// WriteTrend renders a 30-day error-count time series per Table I category
// over the characterization period — the view behind finding (i)'s
// "utilization went up, hardware errors went up" narrative and the visible
// pre-operational burst.
func WriteTrend(w io.Writer, events []xid.Event, period stats.Period) error {
	if err := period.Validate(); err != nil {
		return err
	}
	const bucket = 30 * 24 * time.Hour
	n := int(period.End.Sub(period.Start)/bucket) + 1
	type row struct{ hw, mem, ic int }
	buckets := make([]row, n)
	for _, ev := range events {
		t := ev.Time.Time()
		if !period.Contains(t) || !ev.Code.InStats() {
			continue
		}
		i := int(t.Sub(period.Start) / bucket)
		if i < 0 || i >= n {
			continue
		}
		switch ev.Code.Category() {
		case xid.CategoryHardware:
			buckets[i].hw++
		case xid.CategoryMemory:
			buckets[i].mem++
		case xid.CategoryInterconnect:
			buckets[i].ic++
		}
	}
	maxTotal := 1
	for _, b := range buckets {
		if t := b.hw + b.mem + b.ic; t > maxTotal {
			maxTotal = t
		}
	}
	if _, err := fmt.Fprintf(w, "30-day error counts (H hardware, M memory, I interconnect)\n"); err != nil {
		return err
	}
	for i, b := range buckets {
		start := period.Start.Add(time.Duration(i) * bucket)
		total := b.hw + b.mem + b.ic
		width := 0
		if maxTotal > 0 {
			width = total * 40 / maxTotal
		}
		bar := make([]byte, 0, 40)
		for j := 0; j < width; j++ {
			bar = append(bar, '#')
		}
		if _, err := fmt.Fprintf(w, "%s  %-40s  %6d  (H %d / M %d / I %d)\n",
			start.Format("2006-01"), bar, total, b.hw, b.mem, b.ic); err != nil {
			return err
		}
	}
	return nil
}
