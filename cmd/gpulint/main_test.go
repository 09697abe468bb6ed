package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpuresilience/internal/lint"
)

// writeFixtureModule lays out a throwaway module with one deliberate
// determinism violation, so the CLI tests never depend on (or mutate) the
// real repository's lint state.
func writeFixtureModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module lintfixture\n\ngo 1.22\n",
		"report/report.go": `package report

import "time"

// Stamp reads the wall clock.
func Stamp() time.Time {
	return time.Now()
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestRunGatesOnNewFinding(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list; skipped in -short")
	}
	dir := writeFixtureModule(t)
	var out, errb strings.Builder
	if code := run([]string{"-C", dir, "./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "[determinism]") ||
		!strings.Contains(out.String(), "report/report.go:") {
		t.Fatalf("finding not rendered as file:line:col [analyzer] message:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "1 new finding") {
		t.Fatalf("summary missing from stderr: %s", errb.String())
	}
}

func TestRunWriteBaselineThenClean(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list; skipped in -short")
	}
	dir := writeFixtureModule(t)
	var out, errb strings.Builder
	if code := run([]string{"-C", dir, "-write-baseline", "./..."}, &out, &errb); code != 0 {
		t.Fatalf("-write-baseline exit = %d; stderr: %s", code, errb.String())
	}
	b, err := lint.ReadBaseline(filepath.Join(dir, "lint_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Findings) != 1 || b.Findings[0].Analyzer != "determinism" {
		t.Fatalf("baseline = %+v, want one determinism entry", b.Findings)
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-C", dir, "./..."}, &out, &errb); code != 0 {
		t.Fatalf("baselined run exit = %d; stdout: %s stderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "1 baselined") {
		t.Fatalf("summary should count the baselined finding: %s", errb.String())
	}
}

func TestRunJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list; skipped in -short")
	}
	dir := writeFixtureModule(t)
	var out, errb strings.Builder
	if code := run([]string{"-C", dir, "-json", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	var rep struct {
		Findings []lint.Finding `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, out.String())
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %+v, want exactly one", rep.Findings)
	}
	f := rep.Findings[0]
	if f.Analyzer != "determinism" || f.File != "report/report.go" || f.Line == 0 {
		t.Fatalf("unexpected JSON finding: %+v", f)
	}
}

func TestRunBadPatternExitsUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list; skipped in -short")
	}
	dir := writeFixtureModule(t)
	var out, errb strings.Builder
	if code := run([]string{"-C", dir, "./does-not-exist"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, errb.String())
	}
}

func TestAnalyzersFlag(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-analyzers"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d; stderr: %s", code, errb.String())
	}
	for _, name := range []string{"determinism", "obsnil", "errwrap", "lockguard", "chanclose", "doccomment"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("analyzer %s missing from -analyzers listing", name)
		}
	}
}
