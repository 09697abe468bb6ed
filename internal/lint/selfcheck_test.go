package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoIsLintClean is the acceptance gate in test form: the full
// analyzer registry over the whole module must report nothing beyond the
// committed baseline.
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
		if !f.Baselined {
			t.Errorf("new finding: %s:%d:%d [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
}

// requireInjectedFinding loads the package at pkgDir (module-root
// relative) with src overlaid as file — planted through the loader's
// overlay, without touching the tree — runs analyzer over it, and requires
// the single finding it reports to sit in the injected file, mention want,
// and come from analyzer: the real package must stay clean.
func requireInjectedFinding(t *testing.T, pkgDir, file, src string, analyzer *Analyzer, want string) {
	t.Helper()
	if testing.Short() {
		t.Skipf("type-checks %s; skipped in -short", pkgDir)
	}
	injected := pkgDir + "/" + file
	m, err := Load(LoadConfig{
		Dir:      "../..",
		Patterns: []string{"./" + pkgDir},
		Overlay:  map[string]string{injected: src},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []Finding
	for _, f := range Run(m, []*Analyzer{analyzer}) {
		if f.File == injected {
			got = append(got, f)
		} else {
			t.Errorf("unexpected finding outside the injected file: %+v", f)
		}
	}
	if len(got) != 1 {
		t.Fatalf("want exactly 1 finding in the injected file, got %d: %+v", len(got), got)
	}
	if !strings.Contains(got[0].Message, want) || got[0].Analyzer != analyzer.Name {
		t.Fatalf("unexpected finding for the injected defect: %+v", got[0])
	}
}

// TestInjectedViolationIsCaught proves the determinism gate actually bites:
// a wall-clock read planted into internal/report — the most
// determinism-sensitive package — must surface as exactly one finding.
func TestInjectedViolationIsCaught(t *testing.T) {
	requireInjectedFinding(t, "internal/report", "zz_lint_inject.go", `package report

import "time"

// Stamp deliberately reads the wall clock so the self-test can prove the
// determinism analyzer would gate it.
func Stamp() time.Time {
	return time.Now()
}
`, Determinism, "time.Now")
}

// TestInjectedUnguardedAccessIsCaught proves the lockguard gate bites on
// the real annotations: a method reading the Engine's state record (e.st)
// without e.mu, planted into internal/stream — the package whose
// `// guarded by mu` fields protect the watermark state machine — must
// surface as exactly one lockguard finding.
func TestInjectedUnguardedAccessIsCaught(t *testing.T) {
	requireInjectedFinding(t, "internal/stream", "zz_lockguard_inject.go", `package stream

// PeekPending deliberately reads a guarded field without taking e.mu so
// the self-test can prove the lockguard analyzer would gate it.
func (e *Engine) PeekPending() int {
	return len(e.st.Pending)
}
`, LockGuard, "unguarded read of st")
}

// TestInjectedSharedCloseIsCaught proves the chanclose gate bites where
// neither go test nor the race detector does: a goroutine spawned in a loop
// in internal/parallel that closes a channel every iteration shares is a
// double close whenever the loop runs twice, and must surface as exactly
// one chanclose finding.
func TestInjectedSharedCloseIsCaught(t *testing.T) {
	requireInjectedFinding(t, "internal/parallel", "zz_chanclose_inject.go", `package parallel

// closeFromEach deliberately closes one shared channel from every spawned
// goroutine so the self-test can prove the chanclose analyzer would gate it.
func closeFromEach(n int) {
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() {
			close(done)
		}()
	}
	<-done
}
`, ChanClose, "inside a goroutine spawned in a loop")
}

// TestInjectedFlattenedErrorIsCaught proves the errwrap gate bites where
// no test does: an fmt.Errorf in internal/ingest that formats its cause
// with %v cuts the error chain callers inspect with errors.Is/As, and must
// surface as exactly one errwrap finding.
func TestInjectedFlattenedErrorIsCaught(t *testing.T) {
	requireInjectedFinding(t, "internal/ingest", "zz_errwrap_inject.go", `package ingest

import "fmt"

// flattenShardError deliberately formats its cause with %v so the
// self-test can prove the errwrap analyzer would gate it.
func flattenShardError(shard string, err error) error {
	return fmt.Errorf("ingest: shard %s: %v", shard, err)
}
`, ErrWrap, "use %w")
}

// TestInjectedUnguardedObsMethodIsCaught proves the obsnil gate bites
// where no test does: an exported pointer-receiver method planted into
// internal/obs that reads a field before any nil-receiver guard panics on
// the nil *Counter every uninstrumented call site holds, and must surface
// as exactly one obsnil finding.
func TestInjectedUnguardedObsMethodIsCaught(t *testing.T) {
	requireInjectedFinding(t, "internal/obs", "zz_obsnil_inject.go", `package obs

// Doubled deliberately reads the counter without a nil-receiver guard so
// the self-test can prove the obsnil analyzer would gate it.
func (c *Counter) Doubled() int64 {
	return 2 * c.v.Load()
}
`, ObsNil, "(*Counter).Doubled must begin with")
}

// TestInjectedUndocumentedExportIsCaught proves the doccomment gate bites
// where no test does: an exported function without a doc comment, planted
// into internal/stats — a covered package — compiles and passes every
// test, and must surface as exactly one doccomment finding.
func TestInjectedUndocumentedExportIsCaught(t *testing.T) {
	requireInjectedFinding(t, "internal/stats", "zz_doccomment_inject.go", `package stats

func Midrange(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return (xs[0] + xs[len(xs)-1]) / 2
}
`, DocComment, "exported function Midrange is missing a doc comment")
}
