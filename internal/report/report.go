// Package report renders the reproduction's tables and figures as text:
// Table I (resilience statistics), Table II (job failure probabilities),
// Table III (workload distribution), the Figure 2 unavailability histogram,
// and paper-vs-measured comparison tables for EXPERIMENTS.md.
package report

import (
	"fmt"
	"io"
	"strings"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/core"
	"gpuresilience/internal/workload"
	"gpuresilience/internal/xid"
)

// mtbeCell formats an MTBE figure the way Table I does ("-" for no events).
func mtbeCell(v float64, count int) string {
	if count == 0 || v == 0 {
		return "-"
	}
	switch {
	case v < 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// WriteTableI renders the computed Table I.
func WriteTableI(w io.Writer, res *core.Results) error {
	tw := newTableWriter(w,
		"Event", "Category", "Pre-op Count", "Op Count",
		"Pre-op Sys MTBE (h)", "Pre-op /Node MTBE (h)",
		"Op Sys MTBE (h)", "Op /Node MTBE (h)")
	for _, row := range res.TableI {
		tw.row(
			string(row.Group),
			row.Category.String(),
			fmt.Sprintf("%d", row.PreOp.Count),
			fmt.Sprintf("%d", row.Op.Count),
			mtbeCell(row.PreOp.MTBE.SystemWide, row.PreOp.Count),
			mtbeCell(row.PreOp.MTBE.PerNode, row.PreOp.Count),
			mtbeCell(row.Op.MTBE.SystemWide, row.Op.Count),
			mtbeCell(row.Op.MTBE.PerNode, row.Op.Count),
		)
	}
	if err := tw.flush(); err != nil {
		return err
	}
	change := "-"
	if res.PreSummary.PerNodeMTBE > 0 {
		change = fmt.Sprintf("%.0f%%",
			100*(res.OpSummary.PerNodeMTBE-res.PreSummary.PerNodeMTBE)/res.PreSummary.PerNodeMTBE)
	}
	ratio := "-"
	if res.OpSummary.HardwarePerNodeMTBE > 0 {
		ratio = fmt.Sprintf("%.0fx", res.OpSummary.MemoryPerNodeMTBE/res.OpSummary.HardwarePerNodeMTBE)
	}
	_, err := fmt.Fprintf(w,
		"\nTotals: pre-op %d errors (%d excl. outlier bursts), op %d errors\n"+
			"Per-node MTBE: pre-op %.0f h -> op %.0f h (%s change)\n"+
			"Op per-node MTBE, memory %.0f h vs hardware+interconnect %.0f h (%s)\n",
		res.PreSummary.Total, res.PreSummary.TotalExclOutliers, res.OpSummary.Total,
		res.PreSummary.PerNodeMTBE, res.OpSummary.PerNodeMTBE, change,
		res.OpSummary.MemoryPerNodeMTBE, res.OpSummary.HardwarePerNodeMTBE, ratio)
	return err
}

// WriteTableII renders the computed Table II, paper row order first.
func WriteTableII(w io.Writer, res *core.Results) error {
	tw := newTableWriter(w, "XID", "GPU Error", "# GPU-failed jobs", "# Jobs encountering",
		"Failure probability (%)")
	order := []xid.Code{xid.MMU, xid.PMUSPIReadFail, xid.GSPRPCTimeout, xid.NVLink, xid.ContainedMem}
	seen := make(map[xid.Code]bool)
	emit := func(code xid.Code) {
		row, ok := res.TableII.Row(code)
		if !ok {
			return
		}
		seen[code] = true
		tw.row(fmt.Sprintf("%d", int(code)), code.Abbr(),
			fmt.Sprintf("%d", row.GPUFailedJobs),
			fmt.Sprintf("%d", row.JobsEncountering),
			fmt.Sprintf("%.2f", 100*row.FailureProb))
	}
	for _, code := range order {
		emit(code)
	}
	for _, row := range res.TableII.Rows {
		if !seen[row.Code] {
			emit(row.Code)
		}
	}
	if err := tw.flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nTotal GPU-failed jobs: %d\n", res.TableII.TotalGPUFailedJobs)
	return err
}

// WriteTableIII renders the computed Table III.
func WriteTableIII(w io.Writer, res *core.Results) error {
	tw := newTableWriter(w, "GPU Count", "Count (%)", "Mean (min)", "P50 (min)",
		"P99 (min)", "GPU Hours ML (k)", "GPU Hours Non-ML (k)")
	for _, row := range res.TableIII {
		tw.row(row.Bucket,
			fmt.Sprintf("%d (%.3f)", row.Count, row.Pct),
			fmt.Sprintf("%.2f", row.MeanMin),
			fmt.Sprintf("%.2f", row.P50Min),
			fmt.Sprintf("%.2f", row.P99Min),
			fmt.Sprintf("%.1f", row.MLGPUHoursK),
			fmt.Sprintf("%.1f", row.NonMLGPUHoursK))
	}
	if err := tw.flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"\nGPU jobs: %d (%.2f%% success)  CPU jobs: %d (%.2f%% success)\n"+
			"GPU-count shares: 1 GPU %.2f%%, 2-4 GPUs %.2f%%, >4 GPUs %.2f%%\n",
		res.JobStats.GPUTotal, 100*res.JobStats.GPUSuccessRate,
		res.JobStats.CPUTotal, 100*res.JobStats.CPUSuccessRate,
		100*res.JobStats.ShareSingleGPU, 100*res.JobStats.Share2to4,
		100*res.JobStats.ShareOver4)
	return err
}

// WriteScanSummary renders the xidstat document's header: Stage I's line
// accounting and the coalesced error count, then a blank line.
func WriteScanSummary(w io.Writer, res *core.Results) error {
	_, err := fmt.Fprintf(w, "scanned %d lines: %d XID lines, %d noise, %d malformed -> %d coalesced errors\n\n",
		res.Extract.Lines, res.Extract.XIDLines, res.Extract.Skipped,
		res.Extract.Malformed, res.CoalescedEvents)
	return err
}

// WriteJobImpact renders the jobimpact document: Table II, a blank line,
// and Table III.
func WriteJobImpact(w io.Writer, res *core.Results) error {
	if err := WriteTableII(w, res); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return WriteTableIII(w, res)
}

// WriteFigure2 renders the unavailability-time distribution as a text
// histogram plus the §V-C summary numbers.
func WriteFigure2(w io.Writer, res *core.Results) error {
	a := res.Avail
	if _, err := fmt.Fprintf(w, "Figure 2: unavailability time distribution (%d repairs)\n", a.Repairs); err != nil {
		return err
	}
	h := a.Histogram
	maxCount := 1
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range h.Counts {
		lo, hi := h.BucketBounds(i)
		bar := strings.Repeat("#", c*50/maxCount)
		if _, err := fmt.Fprintf(w, "%5.2f-%5.2f h | %-50s %d\n", lo, hi, bar, c); err != nil {
			return err
		}
	}
	if h.Overflow > 0 {
		if _, err := fmt.Fprintf(w, "     >%.2f h | %d (storm-length outages)\n", h.Max, h.Overflow); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w,
		"\nMTTR %.2f h (median %.2f, p99 %.2f)  lost node-hours %.0f\n"+
			"MTTF %.0f h  availability %.2f%%  downtime/day %s\n",
		a.MTTRHours, a.MedianHours, a.P99Hours, a.LostNodeHours,
		a.MTTFHours, 100*a.Availability, a.DowntimePerDay.Round(0))
	return err
}

// WriteAll renders every table and figure.
func WriteAll(w io.Writer, res *core.Results) error {
	sections := []struct {
		title string
		fn    func(io.Writer, *core.Results) error
	}{
		{"Table I: GPU resilience statistics", WriteTableI},
		{"Table II: GPU error propagation to jobs", WriteTableII},
		{"Table III: job distribution", WriteTableIII},
		{"Figure 2 / availability", WriteFigure2},
	}
	for _, s := range sections {
		if _, err := fmt.Fprintf(w, "\n=== %s ===\n\n", s.title); err != nil {
			return err
		}
		if err := s.fn(w, res); err != nil {
			return err
		}
	}
	return nil
}

// WriteComparison renders measured-vs-paper rows for every Table I cell and
// the headline findings — the content of EXPERIMENTS.md.
func WriteComparison(w io.Writer, res *core.Results) error {
	tw := newTableWriter(w, "Metric", "Paper", "Measured", "Ratio")
	ratio := func(measured, paper float64) string {
		if paper == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f", measured/paper)
	}
	for _, exp := range calib.PaperTableI() {
		row, ok := res.Row(exp.Group)
		if !ok {
			continue
		}
		tw.row(fmt.Sprintf("Table I %s pre-op count", exp.Group),
			fmt.Sprintf("%d", exp.PreOp.Count), fmt.Sprintf("%d", row.PreOp.Count),
			ratio(float64(row.PreOp.Count), float64(exp.PreOp.Count)))
		tw.row(fmt.Sprintf("Table I %s op count", exp.Group),
			fmt.Sprintf("%d", exp.Op.Count), fmt.Sprintf("%d", row.Op.Count),
			ratio(float64(row.Op.Count), float64(exp.Op.Count)))
		if exp.Op.PerNodeMTBEHrs > 0 {
			tw.row(fmt.Sprintf("Table I %s op per-node MTBE (h)", exp.Group),
				fmt.Sprintf("%.0f", exp.Op.PerNodeMTBEHrs),
				fmt.Sprintf("%.0f", row.Op.MTBE.PerNode),
				ratio(row.Op.MTBE.PerNode, exp.Op.PerNodeMTBEHrs))
		}
	}
	for _, exp := range calib.PaperTableII() {
		row, ok := res.TableII.Row(exp.Code)
		if !ok {
			continue
		}
		tw.row(fmt.Sprintf("Table II XID %d jobs encountering", int(exp.Code)),
			fmt.Sprintf("%d", exp.Encounters), fmt.Sprintf("%d", row.JobsEncountering),
			ratio(float64(row.JobsEncountering), float64(exp.Encounters)))
		tw.row(fmt.Sprintf("Table II XID %d failure prob (%%)", int(exp.Code)),
			fmt.Sprintf("%.2f", exp.FailureProb), fmt.Sprintf("%.2f", 100*row.FailureProb),
			ratio(100*row.FailureProb, exp.FailureProb))
	}
	// The workload generator's buckets carry the paper's Table III elapsed
	// times, which the measured elapsed times are held to.
	for _, exp := range workload.DefaultBuckets() {
		for _, row := range res.TableIII {
			if row.Bucket != exp.Name {
				continue
			}
			tw.row(fmt.Sprintf("Table III %s GPUs mean elapsed (min)", exp.Name),
				fmt.Sprintf("%.2f", exp.MeanMin), fmt.Sprintf("%.2f", row.MeanMin),
				ratio(row.MeanMin, exp.MeanMin))
			tw.row(fmt.Sprintf("Table III %s GPUs median elapsed (min)", exp.Name),
				fmt.Sprintf("%.2f", exp.MedianMin), fmt.Sprintf("%.2f", row.P50Min),
				ratio(row.P50Min, exp.MedianMin))
		}
	}
	tw.row("Per-node MTBE pre-op (h)", fmt.Sprintf("%d", calib.PaperPreOpPerNodeMTBEHrs),
		fmt.Sprintf("%.0f", res.PreSummary.PerNodeMTBE),
		ratio(res.PreSummary.PerNodeMTBE, calib.PaperPreOpPerNodeMTBEHrs))
	tw.row("Per-node MTBE op (h)", fmt.Sprintf("%d", calib.PaperOpPerNodeMTBEHrs),
		fmt.Sprintf("%.0f", res.OpSummary.PerNodeMTBE),
		ratio(res.OpSummary.PerNodeMTBE, calib.PaperOpPerNodeMTBEHrs))
	if res.OpSummary.HardwarePerNodeMTBE > 0 {
		tw.row("Memory/hardware MTBE ratio", fmt.Sprintf("%d", calib.PaperMemVsHardwareRatio),
			fmt.Sprintf("%.0f", res.OpSummary.MemoryPerNodeMTBE/res.OpSummary.HardwarePerNodeMTBE),
			ratio(res.OpSummary.MemoryPerNodeMTBE/res.OpSummary.HardwarePerNodeMTBE,
				calib.PaperMemVsHardwareRatio))
	}
	tw.row("GPU job success rate", fmt.Sprintf("%.4f", calib.PaperGPUSuccessRate),
		fmt.Sprintf("%.4f", res.JobStats.GPUSuccessRate),
		ratio(res.JobStats.GPUSuccessRate, calib.PaperGPUSuccessRate))
	tw.row("CPU job success rate", fmt.Sprintf("%.4f", calib.PaperCPUSuccessRate),
		fmt.Sprintf("%.4f", res.JobStats.CPUSuccessRate),
		ratio(res.JobStats.CPUSuccessRate, calib.PaperCPUSuccessRate))
	tw.row("MTTR (h)", fmt.Sprintf("%.2f", calib.PaperMTTRHours),
		fmt.Sprintf("%.2f", res.Avail.MTTRHours),
		ratio(res.Avail.MTTRHours, calib.PaperMTTRHours))
	tw.row("MTTF (h)", fmt.Sprintf("%d", calib.PaperMTTFHours),
		fmt.Sprintf("%.0f", res.Avail.MTTFHours),
		ratio(res.Avail.MTTFHours, calib.PaperMTTFHours))
	tw.row("Availability", fmt.Sprintf("%.4f", calib.PaperAvailability),
		fmt.Sprintf("%.4f", res.Avail.Availability),
		ratio(res.Avail.Availability, calib.PaperAvailability))
	tw.row("Lost node-hours", fmt.Sprintf("%d", calib.PaperLostNodeHours),
		fmt.Sprintf("%.0f", res.Avail.LostNodeHours),
		ratio(res.Avail.LostNodeHours, calib.PaperLostNodeHours))
	tw.row("Total GPU-failed jobs", fmt.Sprintf("%d", calib.PaperTotalGPUFailedJobs),
		fmt.Sprintf("%d", res.TableII.TotalGPUFailedJobs),
		ratio(float64(res.TableII.TotalGPUFailedJobs), calib.PaperTotalGPUFailedJobs))
	return tw.flush()
}

// tableWriter renders aligned text tables.
type tableWriter struct {
	w      io.Writer
	header []string
	rows   [][]string
}

func newTableWriter(w io.Writer, header ...string) *tableWriter {
	return &tableWriter{w: w, header: header}
}

func (t *tableWriter) row(cells ...string) {
	t.rows = append(t.rows, cells)
}

func (t *tableWriter) flush() error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		_, err := fmt.Fprintln(t.w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := line(t.header); err != nil {
		return err
	}
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, r := range t.rows {
		if err := line(r); err != nil {
			return err
		}
	}
	return nil
}
