package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoIsLintClean is the acceptance gate in test form: the full
// analyzer registry over the whole module must report nothing beyond the
// committed baseline. Warn-only findings are logged, matching the CLI's
// exit-status semantics.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	m, err := Load(LoadConfig{Dir: "../..", Patterns: []string{"./..."}})
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, All())
	baseline, err := ReadBaseline(filepath.Join(m.Root, "lint_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	findings = ApplyBaseline(findings, baseline)
	for _, f := range findings {
		switch {
		case f.Baselined:
		case f.Severity == SevWarn.String():
			t.Logf("warning: %s:%d:%d [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		default:
			t.Errorf("new finding: %s:%d:%d [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
}

// TestInjectedViolationIsCaught proves the determinism gate actually bites:
// a wall-clock read planted (via the loader's overlay, without touching the
// tree) into internal/report — the most determinism-sensitive package — must
// surface as exactly one new finding.
func TestInjectedViolationIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks internal/report; skipped in -short")
	}
	const inject = `package report

import "time"

// Stamp deliberately reads the wall clock so the self-test can prove the
// determinism analyzer would gate it.
func Stamp() time.Time {
	return time.Now()
}
`
	m, err := Load(LoadConfig{
		Dir:      "../..",
		Patterns: []string{"./internal/report"},
		Overlay:  map[string]string{"internal/report/zz_lint_inject.go": inject},
	})
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, []*Analyzer{Determinism})
	var injected []Finding
	for _, f := range findings {
		if f.File == "internal/report/zz_lint_inject.go" {
			injected = append(injected, f)
		} else {
			t.Errorf("unexpected finding outside the injected file: %+v", f)
		}
	}
	if len(injected) != 1 {
		t.Fatalf("want exactly 1 finding in the injected file, got %d: %+v", len(injected), injected)
	}
	if !strings.Contains(injected[0].Message, "time.Now") || injected[0].Analyzer != "determinism" {
		t.Fatalf("unexpected finding for the injected wall-clock read: %+v", injected[0])
	}
}

// TestInjectedUnguardedAccessIsCaught proves the lockguard gate bites on
// the real annotations: a method reading the Engine's state record (e.st)
// without e.mu, planted via overlay into internal/stream — the package
// whose `// guarded by mu` fields protect the watermark state machine —
// must surface as exactly one lockguard finding.
func TestInjectedUnguardedAccessIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks internal/stream; skipped in -short")
	}
	const inject = `package stream

// PeekPending deliberately reads a guarded field without taking e.mu so
// the self-test can prove the lockguard analyzer would gate it.
func (e *Engine) PeekPending() int {
	return len(e.st.Pending)
}
`
	m, err := Load(LoadConfig{
		Dir:      "../..",
		Patterns: []string{"./internal/stream"},
		Overlay:  map[string]string{"internal/stream/zz_lockguard_inject.go": inject},
	})
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, []*Analyzer{LockGuard})
	var injected []Finding
	for _, f := range findings {
		if f.File == "internal/stream/zz_lockguard_inject.go" {
			injected = append(injected, f)
		} else {
			t.Errorf("unexpected finding outside the injected file: %+v", f)
		}
	}
	if len(injected) != 1 {
		t.Fatalf("want exactly 1 finding in the injected file, got %d: %+v", len(injected), injected)
	}
	if !strings.Contains(injected[0].Message, "unguarded read of st") || injected[0].Analyzer != "lockguard" {
		t.Fatalf("unexpected finding for the injected unguarded access: %+v", injected[0])
	}
}
