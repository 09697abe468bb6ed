package dataset

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFiles(t *testing.T, dir string, names ...string) {
	t.Helper()
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("content of "+name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWriteLoadVerify(t *testing.T) {
	dir := t.TempDir()
	writeFiles(t, dir, SyslogFile, JobsFile, RepairsFile)
	m, err := WriteManifest(dir, 42, 0.5, "test dataset", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Files) != 3 || m.Seed != 42 || m.Scale != 0.5 {
		t.Fatalf("manifest = %+v", m)
	}
	loaded, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Seed != 42 || loaded.Description != "test dataset" {
		t.Fatalf("loaded = %+v", loaded)
	}
	if _, err := Verify(dir); err != nil {
		t.Fatal(err)
	}
	p, err := loaded.Path(dir, SyslogFile)
	if err != nil || !strings.HasSuffix(p, SyslogFile) {
		t.Fatalf("path = %q err = %v", p, err)
	}
	if !loaded.Has(JobsFile) || loaded.Has("nonsense") {
		t.Fatal("Has wrong")
	}
}

func TestWriteManifestPartialDataset(t *testing.T) {
	dir := t.TempDir()
	writeFiles(t, dir, SyslogFile) // job-free simulation
	m, err := WriteManifest(dir, 1, 1, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Files) != 1 || m.Has(JobsFile) {
		t.Fatalf("manifest = %+v", m)
	}
	if _, err := m.Path(dir, JobsFile); err == nil {
		t.Fatal("missing artifact path resolved")
	}
}

func TestWriteManifestEmptyDir(t *testing.T) {
	if _, err := WriteManifest(t.TempDir(), 1, 1, "", 1); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	writeFiles(t, dir, SyslogFile, JobsFile)
	if _, err := WriteManifest(dir, 1, 1, "", 1); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, JobsFile), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil || !strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestVerifyDetectsMissingFile(t *testing.T) {
	dir := t.TempDir()
	writeFiles(t, dir, SyslogFile, RepairsFile)
	if _, err := WriteManifest(dir, 1, 1, "", 1); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, RepairsFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil {
		t.Fatal("missing file not detected")
	}
}

func TestLoadManifestErrors(t *testing.T) {
	if _, err := LoadManifest(t.TempDir()); err == nil {
		t.Fatal("missing manifest accepted")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(dir); err == nil {
		t.Fatal("bad json accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestFile),
		[]byte(`{"formatVersion": 99, "files": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(dir); err == nil {
		t.Fatal("future format version accepted")
	}
}
