package lint

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Fixture expectations are trailing comments of the form
//
//	// want `regex`
//
// asserting that the enclosing line produces a finding whose message matches
// the backquoted regular expression. Because trailing comments double as
// documentation for specs and struct fields (which would suppress doccomment
// findings), an expectation may instead live on its own line below the
// offense with an explicit negative offset:
//
//	// want-2 `regex`
//
// meaning "two lines up". One comment may carry several backquoted patterns
// when a single line yields several findings.
var (
	wantLineRe = regexp.MustCompile("^// want(-[0-9]+)? (.+)$")
	wantPatRe  = regexp.MustCompile("`([^`]*)`")
)

// expectation is one parsed want pattern anchored to a fixture line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// collectWants parses every // want comment in a fixture directory.
func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantLineRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := fset.Position(c.Pos()).Line
				if m[1] != "" {
					off, err := strconv.Atoi(m[1])
					if err != nil {
						t.Fatal(err)
					}
					line += off
				}
				pats := wantPatRe.FindAllStringSubmatch(m[2], -1)
				if len(pats) == 0 {
					t.Fatalf("%s:%d: want comment without a backquoted pattern", e.Name(), line)
				}
				for _, p := range pats {
					re, err := regexp.Compile(p[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", e.Name(), line, p[1], err)
					}
					wants = append(wants, &expectation{file: e.Name(), line: line, pattern: re})
				}
			}
		}
	}
	return wants
}

// TestFixtures runs each analyzer over its fixture package and requires an
// exact correspondence between findings and // want expectations: every
// finding must be expected, every expectation must fire.
func TestFixtures(t *testing.T) {
	cases := []struct {
		dir       string
		analyzers []*Analyzer
	}{
		{"determinism", []*Analyzer{Determinism}},
		{"obsnil", []*Analyzer{ObsNil}},
		{"errwrap", []*Analyzer{ErrWrap}},
		{"lockguard", []*Analyzer{LockGuard}},
		{"chanclose", []*Analyzer{ChanClose}},
		{"doccomment", []*Analyzer{DocComment}},
		// Directive diagnostics are produced by the framework itself, before
		// any analyzer runs (but a valid directive must still suppress).
		{"directive", []*Analyzer{Determinism}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.dir, func(t *testing.T) {
			t.Parallel()
			dir := filepath.Join("testdata", "src", tc.dir)
			m, err := LoadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			findings := Run(m, tc.analyzers)
			wants := collectWants(t, dir)
			for _, f := range findings {
				ok := false
				for _, w := range wants {
					if w.file == f.File && w.line == f.Line && w.pattern.MatchString(f.Message) {
						w.matched = true
						ok = true
					}
				}
				if !ok {
					t.Errorf("unexpected finding %s:%d:%d [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.pattern)
				}
			}
		})
	}
}
