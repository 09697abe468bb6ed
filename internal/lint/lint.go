// Package lint is the repo's dependency-free static-analysis framework: a
// package loader built on `go list -export` plus go/parser and go/types, a
// small analyzer interface, and a registry of repo-specific analyzers that
// machine-check the pipeline's invariants — output determinism, nil-safe
// observability call sites, error-chain preservation, lock and channel
// discipline, and doc-comment coverage.
//
// The framework deliberately avoids golang.org/x/tools so the module keeps
// its empty require block; everything here is standard library. cmd/gpulint
// is the CLI front end, `make lint` the entry point, and
// docs/static-analysis.md the authoritative description of each analyzer,
// the //lint:allow directive, and the baseline workflow.
package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Finding is one analyzer diagnosis, rendered as
// "file:line:col [analyzer] message".
type Finding struct {
	// Analyzer names the analyzer that produced the finding.
	Analyzer string `json:"analyzer"`
	// File is the module-root-relative path, forward slashes.
	File string `json:"file"`
	// Line and Col are 1-based.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Message states the violated invariant and the expected fix.
	Message string `json:"message"`
	// Baselined marks findings suppressed by lint_baseline.json.
	Baselined bool `json:"baselined,omitempty"`
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the identifier used in findings, //lint:allow directives,
	// and the baseline file.
	Name string
	// Doc is the one-line description `gpulint -analyzers` prints.
	Doc string
	// Run inspects one package and reports through the pass.
	Run func(*Pass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset positions every node in Pkg.
	Fset *token.FileSet
	// Pkg is the package under analysis.
	Pkg *Package

	root     string
	findings []Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.findings = append(p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		File:     relPath(p.root, position.Filename),
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over every package in m and returns the
// surviving findings sorted by file, line, column, and analyzer. Findings
// on a line covered by a matching //lint:allow directive are dropped;
// malformed directives are themselves reported (analyzer "directive").
func Run(m *Module, analyzers []*Analyzer) []Finding {
	findings, _ := run(m, analyzers, false)
	return findings
}

// AnalyzerTiming is one analyzer's wall time summed over every package of a
// timed run.
type AnalyzerTiming struct {
	// Name is the analyzer the time belongs to.
	Name string `json:"name"`
	// Millis is the accumulated wall time in milliseconds.
	Millis float64 `json:"ms"`
}

// RunTimed is Run plus per-analyzer wall-time accounting, returned slowest
// first (ties broken by name). It backs `gpulint -timing`.
func RunTimed(m *Module, analyzers []*Analyzer) ([]Finding, []AnalyzerTiming) {
	return run(m, analyzers, true)
}

func run(m *Module, analyzers []*Analyzer, timed bool) ([]Finding, []AnalyzerTiming) {
	var out []Finding
	elapsed := make(map[string]time.Duration, len(analyzers))
	for _, pkg := range m.Pkgs {
		allows, directiveFindings := collectAllows(m, pkg)
		out = append(out, directiveFindings...)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: m.Fset, Pkg: pkg, root: m.Root}
			var start time.Time
			if timed {
				//lint:allow determinism intentional wall-time metering for -timing
				start = time.Now()
			}
			a.Run(pass)
			if timed {
				//lint:allow determinism intentional wall-time metering for -timing
				elapsed[a.Name] += time.Since(start)
			}
			for _, f := range pass.findings {
				if allows.covers(a.Name, f.File, f.Line) {
					continue
				}
				out = append(out, f)
			}
		}
	}
	sortFindings(out)
	if !timed {
		return out, nil
	}
	timings := make([]AnalyzerTiming, 0, len(analyzers))
	for _, a := range analyzers {
		timings = append(timings, AnalyzerTiming{
			Name:   a.Name,
			Millis: float64(elapsed[a.Name]) / float64(time.Millisecond),
		})
	}
	sort.Slice(timings, func(i, j int) bool {
		if timings[i].Millis != timings[j].Millis {
			return timings[i].Millis > timings[j].Millis
		}
		return timings[i].Name < timings[j].Name
	})
	return out, timings
}

// sortFindings orders findings for stable output.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// allowSet indexes //lint:allow directives: a directive on line L covers
// findings from its analyzer on L and L+1 (trailing-comment and
// comment-above forms respectively).
type allowSet map[allowKey]bool

type allowKey struct {
	analyzer string
	file     string
	line     int
}

func (s allowSet) covers(analyzer, file string, line int) bool {
	return s[allowKey{analyzer, file, line}]
}

// allowPrefix introduces a suppression directive comment. The grammar is
//
//	//lint:allow <analyzer> <reason...>
//
// with a mandatory non-empty reason; see docs/static-analysis.md.
const allowPrefix = "//lint:allow"

// collectAllows scans a package's comments for //lint:allow directives,
// validating the analyzer name against the full registry and requiring a
// reason. Malformed directives become error findings so a typo cannot
// silently disable a check.
func collectAllows(m *Module, pkg *Package) (allowSet, []Finding) {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	set := allowSet{}
	var bad []Finding
	report := func(pos token.Pos, msg string) {
		position := m.Fset.Position(pos)
		bad = append(bad, Finding{
			Analyzer: "directive",
			File:     relPath(m.Root, position.Filename),
			Line:     position.Line,
			Col:      position.Column,
			Message:  msg,
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:allowance — not ours
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					report(c.Pos(), "malformed //lint:allow: missing analyzer name and reason")
					continue
				}
				if !known[fields[0]] {
					report(c.Pos(), fmt.Sprintf("malformed //lint:allow: unknown analyzer %q", fields[0]))
					continue
				}
				if len(fields) < 2 {
					report(c.Pos(), fmt.Sprintf("malformed //lint:allow %s: a reason is required", fields[0]))
					continue
				}
				position := m.Fset.Position(c.Pos())
				file := relPath(m.Root, position.Filename)
				set[allowKey{fields[0], file, position.Line}] = true
				set[allowKey{fields[0], file, position.Line + 1}] = true
			}
		}
	}
	return set, bad
}

// relPath renders path relative to root with forward slashes; if that fails
// the absolute path is kept (still deterministic).
func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(path)
}
