// Command gpulint runs the repo's custom static analyzers (internal/lint)
// over a set of packages and reports findings as
//
//	file:line:col [analyzer] message
//
// Findings present in the committed suppression baseline
// (lint_baseline.json at the module root) are tolerated; any new finding
// exits non-zero, which is how the CI lint job gates merges. Intentional one-off deviations are annotated in source with
// `//lint:allow <analyzer> <reason>` instead of baselined.
//
// Usage:
//
//	gpulint [-json] [-timing] [-baseline file] [-write-baseline] [-C dir] [-analyzers] [packages...]
//
// With no package patterns, ./... is linted. See docs/static-analysis.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gpuresilience/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the -json document: every finding, baselined ones included, so
// CI can archive the full picture as an artifact.
type report struct {
	Findings []lint.Finding        `json:"findings"`
	Timings  []lint.AnalyzerTiming `json:"timings,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gpulint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON (all findings, baselined included)")
	baselinePath := fs.String("baseline", "", "suppression baseline file (default <module root>/lint_baseline.json)")
	writeBaseline := fs.Bool("write-baseline", false, "regenerate the baseline from current findings and exit")
	dir := fs.String("C", "", "run as if started in this directory")
	listAnalyzers := fs.Bool("analyzers", false, "list registered analyzers and exit")
	timing := fs.Bool("timing", false, "report per-analyzer wall time (stderr, or the timings field with -json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listAnalyzers {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	mod, err := lint.Load(lint.LoadConfig{Dir: *dir, Patterns: fs.Args()})
	if err != nil {
		fmt.Fprintf(stderr, "gpulint: %v\n", err)
		return 2
	}
	var timings []lint.AnalyzerTiming
	var findings []lint.Finding
	if *timing {
		findings, timings = lint.RunTimed(mod, lint.All())
	} else {
		findings = lint.Run(mod, lint.All())
	}

	path := *baselinePath
	if path == "" {
		path = filepath.Join(mod.Root, "lint_baseline.json")
	}
	if *writeBaseline {
		b := lint.BaselineFrom(findings)
		if err := b.Write(path); err != nil {
			fmt.Fprintf(stderr, "gpulint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "gpulint: wrote %d baseline entr%s to %s\n",
			len(b.Findings), plural(len(b.Findings), "y", "ies"), path)
		return 0
	}
	baseline, err := lint.ReadBaseline(path)
	if err != nil {
		fmt.Fprintf(stderr, "gpulint: %v\n", err)
		return 2
	}
	findings = lint.ApplyBaseline(findings, baseline)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report{Findings: findings, Timings: timings}); err != nil {
			fmt.Fprintf(stderr, "gpulint: %v\n", err)
			return 2
		}
	}
	newFindings, baselined := 0, 0
	for _, f := range findings {
		if f.Baselined {
			baselined++
			continue
		}
		newFindings++
		if !*jsonOut {
			fmt.Fprintf(stdout, "%s:%d:%d [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if *timing && !*jsonOut {
		fmt.Fprintf(stderr, "gpulint: per-analyzer wall time (slowest first):\n")
		for _, tm := range timings {
			fmt.Fprintf(stderr, "  %-16s %8.1f ms\n", tm.Name, tm.Millis)
		}
	}
	if newFindings > 0 {
		fmt.Fprintf(stderr, "gpulint: %d new finding%s (%d baselined) across %d package%s\n",
			newFindings, plural(newFindings, "", "s"), baselined, len(mod.Pkgs), plural(len(mod.Pkgs), "", "s"))
		return 1
	}
	fmt.Fprintf(stderr, "gpulint: clean (%d package%s, %d baselined)\n",
		len(mod.Pkgs), plural(len(mod.Pkgs), "", "s"), baselined)
	return 0
}

// plural picks the singular or plural suffix for n.
func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
