package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestBaselineRoundTrip(t *testing.T) {
	fs := []Finding{
		{Analyzer: "determinism", File: "a.go", Line: 3, Message: "m1"},
		// Same (analyzer, file, message) at another line: one baseline entry.
		{Analyzer: "determinism", File: "a.go", Line: 9, Message: "m1"},
		{Analyzer: "errwrap", File: "b.go", Line: 2, Message: "m2"},
	}
	b := BaselineFrom(fs)
	want := []BaselineEntry{
		{Analyzer: "determinism", File: "a.go", Message: "m1"},
		{Analyzer: "errwrap", File: "b.go", Message: "m2"},
	}
	if !reflect.DeepEqual(b.Findings, want) {
		t.Fatalf("BaselineFrom = %+v, want %+v", b.Findings, want)
	}

	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := b.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("round trip = %+v, want %+v", got, b)
	}

	// A finding the baseline does not name stays new.
	fs = append(fs, Finding{Analyzer: "doccomment", File: "b.go", Line: 1, Message: "w"})
	applied := ApplyBaseline(fs, got)
	for i, wantBaselined := range []bool{true, true, true, false} {
		if applied[i].Baselined != wantBaselined {
			t.Errorf("finding %d: Baselined = %v, want %v", i, applied[i].Baselined, wantBaselined)
		}
	}
}

func TestReadBaselineMissingFile(t *testing.T) {
	b, err := ReadBaseline(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatal(err)
	}
	if b.Version != 1 || len(b.Findings) != 0 {
		t.Fatalf("missing baseline = %+v, want empty v1", b)
	}
}

func TestReadBaselineRejectsUnknownVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(`{"version":2,"findings":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBaseline(path); err == nil {
		t.Fatal("want an error for version 2, got nil")
	}
}

func TestApplyBaselineNil(t *testing.T) {
	fs := []Finding{{Analyzer: "errwrap", File: "a.go", Message: "m"}}
	out := ApplyBaseline(fs, nil)
	if out[0].Baselined {
		t.Fatal("nil baseline must not mark findings")
	}
}
