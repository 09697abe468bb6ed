package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// benchDef is the part of BENCHMARK.json compare applies.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// side is one commit's value of one metric on one workload. Each result
// file is one run, and a run counts by its median alone.
type side struct {
	value  float64   // median of the run medians: what the verdict compares
	runs   []float64 // each run's median
	spread float64   // how far value can be trusted, as a share of it
}

// sideOf gathers a metric from one commit's result files. With two or more
// runs the spread is the quartile distance of their medians. A single run
// has no run-to-run spread, so the quartile distance of its own operations
// stands in for it.
func sideOf(docs []*resultDoc, workload, metric string) (side, bool) {
	var s side
	var last summary
	for _, d := range docs {
		w := d.Workloads[workload]
		if w == nil {
			return s, false
		}
		m, ok := w.Metrics[metric]
		if !ok {
			m, ok = w.Ungated[metric]
		}
		if !ok {
			return s, false
		}
		s.runs = append(s.runs, m.Value)
		last = m
	}
	if len(s.runs) == 1 {
		s.value, s.spread = last.Value, last.spread()
		return s, true
	}
	sum := summarize(s.runs, "")
	s.value, s.spread = sum.Value, sum.spread()
	return s, true
}

// compareRow is one metric on one workload.
type compareRow struct {
	workload, metric string
	base, new        float64
	change           float64 // (new-base)/base; NaN for failed_frac
	spread, bound    float64 // bound is NaN for an ungated metric
	verdict          string
}

// compareDocs applies each end-to-end metric's bound to every workload both
// sides ran. A change worse than the bound is a regression and one better
// than it an improvement. Where either side's spread exceeds the bound the
// row is unresolved, unless both sides have several runs and every run of
// the new side beats every run of the base. Ungated metrics get a row
// with their change and spread but no verdict.
func compareDocs(def benchDef, base, next []*resultDoc) []compareRow {
	var rows []compareRow
	for _, w := range def.Workloads {
		for _, m := range def.EndToEnd {
			b, okB := sideOf(base, w.Name, m.Name)
			n, okN := sideOf(next, w.Name, m.Name)
			if !okB || !okN {
				continue
			}
			r := compareRow{workload: w.Name, metric: m.Name, base: b.value, new: n.value,
				change: (n.value - b.value) / b.value, spread: math.Max(b.spread, n.spread), bound: m.Bound}
			worse := r.change
			if m.Better == "higher" {
				worse = -worse
			}
			switch {
			case r.spread > m.Bound && len(b.runs) > 1 && len(n.runs) > 1 && allBetter(b.runs, n.runs, m.Better == "higher"):
				r.verdict = "improved"
			case r.spread > m.Bound:
				r.verdict = "unresolved"
			case worse > m.Bound:
				r.verdict = "regression"
			case -worse > m.Bound:
				r.verdict = "improved"
			default:
				r.verdict = "unchanged"
			}
			rows = append(rows, r)
		}
		for _, name := range ungatedNames(base, w.Name) {
			b, okB := sideOf(base, w.Name, name)
			n, okN := sideOf(next, w.Name, name)
			if okB && okN {
				rows = append(rows, compareRow{workload: w.Name, metric: name, base: b.value, new: n.value,
					change: (n.value - b.value) / b.value, spread: math.Max(b.spread, n.spread), bound: math.NaN(),
					verdict: "ungated"})
			}
		}
		if fb, ok := failedFrac(base, w.Name); ok {
			if fn, ok := failedFrac(next, w.Name); ok {
				r := compareRow{workload: w.Name, metric: "failed_frac", base: fb, new: fn, verdict: "unchanged",
					change: math.NaN()}
				if fn > fb {
					r.verdict = "regression"
				}
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// ungatedNames lists, sorted, the ungated metrics the first result file
// records for workload.
func ungatedNames(docs []*resultDoc, workload string) []string {
	var names []string
	if w := docs[0].Workloads[workload]; w != nil {
		for name := range w.Ungated {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// allBetter reports whether every new run beats every base run.
func allBetter(base, next []float64, higher bool) bool {
	bLo, bHi := bounds(base)
	nLo, nHi := bounds(next)
	if higher {
		return nLo > bHi
	}
	return nHi < bLo
}

func bounds(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// failedFrac is the share of failed operations over a side's runs.
func failedFrac(docs []*resultDoc, workload string) (float64, bool) {
	attempted, failed := 0, 0
	for _, d := range docs {
		w := d.Workloads[workload]
		if w == nil {
			return 0, false
		}
		attempted += w.Attempted
		failed += w.Failed
	}
	if attempted == 0 {
		return 0, false
	}
	return float64(failed) / float64(attempted), true
}

// runCompare is `gpubench compare -base a.json -new b.json`.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	basePaths := fs.String("base", "", "comma-separated result files of the parent commit")
	newPaths := fs.String("new", "", "comma-separated result files of the change")
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePaths == "" || *newPaths == "" || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "gpubench: usage: gpubench compare -base a.json[,...] -new b.json[,...] [-bench BENCHMARK.json]")
		return 2
	}
	var def benchDef
	if err := readJSON(*benchPath, &def); err != nil {
		fmt.Fprintf(stderr, "gpubench: %v\n", err)
		return 1
	}
	load := func(paths string) ([]*resultDoc, error) {
		var docs []*resultDoc
		for _, p := range strings.Split(paths, ",") {
			d := new(resultDoc)
			if err := readJSON(p, d); err != nil {
				return nil, err
			}
			docs = append(docs, d)
		}
		return docs, nil
	}
	base, err := load(*basePaths)
	if err != nil {
		fmt.Fprintf(stderr, "gpubench: %v\n", err)
		return 1
	}
	next, err := load(*newPaths)
	if err != nil {
		fmt.Fprintf(stderr, "gpubench: %v\n", err)
		return 1
	}
	rows := compareDocs(def, base, next)
	fmt.Fprintf(stdout, "%-14s %-12s %14s %14s %8s %7s %6s  %s\n",
		"workload", "metric", "base", "new", "change", "spread", "bound", "verdict")
	status := 0
	pct := func(x float64) string {
		if math.IsNaN(x) {
			return "-"
		}
		return fmt.Sprintf("%+.1f%%", 100*x)
	}
	for _, r := range rows {
		bound := "-"
		if !math.IsNaN(r.bound) {
			bound = fmt.Sprintf("%.0f%%", 100*r.bound)
		}
		fmt.Fprintf(stdout, "%-14s %-12s %14.6g %14.6g %8s %6.1f%% %6s  %s\n",
			r.workload, r.metric, r.base, r.new, pct(r.change), 100*r.spread, bound, r.verdict)
		if r.verdict == "regression" {
			status = 1
		}
	}
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "gpubench: the two sides share no workload and metric")
		return 1
	}
	return status
}
