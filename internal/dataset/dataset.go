// Package dataset defines the on-disk layout of a simulated Delta dataset —
// the raw system log, the sacct-style job database, and the node repair log
// — plus a manifest with provenance (seed, scale) and content digests, so
// analysis results can always be traced to the exact inputs that produced
// them.
package dataset

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"gpuresilience/internal/obs"
	"gpuresilience/internal/parallel"
)

// Standard file names inside a dataset directory.
const (
	SyslogFile   = "syslog.txt"
	JobsFile     = "jobs.db"
	RepairsFile  = "repairs.log"
	ManifestFile = "manifest.json"
)

// Manifest describes a dataset.
type Manifest struct {
	FormatVersion int                       `json:"formatVersion"`         // manifest schema version
	Seed          uint64                    `json:"seed"`                  // simulation seed the artifacts came from
	Scale         float64                   `json:"scale"`                 // fleet-size multiplier of the run
	Description   string                    `json:"description,omitempty"` // free-form provenance note
	Files         map[string]obs.FileDigest `json:"files"`                 // per-artifact sizes and digests
}

// currentFormat is the manifest format this package writes.
const currentFormat = 1

// WriteManifest hashes the dataset artifacts present in dir and writes the
// manifest. At least the syslog must exist; jobs and repairs are optional
// (job-free simulations). The artifacts are hashed by a worker pool —
// worthwhile at full scale, where the syslog alone runs to hundreds of
// megabytes; workers follows the pipeline convention (0 = all cores,
// 1 = sequential).
func WriteManifest(dir string, seed uint64, scale float64, description string, workers int) (Manifest, error) {
	m := Manifest{
		FormatVersion: currentFormat,
		Seed:          seed,
		Scale:         scale,
		Description:   description,
		Files:         make(map[string]obs.FileDigest),
	}
	var present []string
	for _, name := range []string{SyslogFile, JobsFile, RepairsFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			present = append(present, name)
		}
	}
	if len(present) == 0 {
		return Manifest{}, errors.New("dataset: no artifacts in directory")
	}
	infos, err := parallel.Map(present, workers, func(name string) (obs.FileDigest, error) {
		info, err := obs.HashFile(filepath.Join(dir, name))
		if err != nil {
			return obs.FileDigest{}, fmt.Errorf("dataset: hash %s: %w", name, err)
		}
		return info, nil
	})
	if err != nil {
		return Manifest{}, err
	}
	for i, name := range present {
		m.Files[name] = infos[i]
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return Manifest{}, err
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), append(data, '\n'), 0o644); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// LoadManifest reads a dataset's manifest.
func LoadManifest(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("dataset: parse manifest: %w", err)
	}
	if m.FormatVersion != currentFormat {
		return Manifest{}, fmt.Errorf("dataset: unsupported manifest version %d", m.FormatVersion)
	}
	return m, nil
}

// Verify recomputes the digests of every artifact the manifest lists.
func Verify(dir string) (Manifest, error) {
	m, err := LoadManifest(dir)
	if err != nil {
		return Manifest{}, err
	}
	for name, want := range m.Files {
		got, err := obs.HashFile(filepath.Join(dir, name))
		if err != nil {
			return Manifest{}, fmt.Errorf("dataset: %s: %w", name, err)
		}
		if got != want {
			return Manifest{}, fmt.Errorf("dataset: %s corrupted: size %d/%d sha %s/%s",
				name, got.Bytes, want.Bytes, got.SHA256[:12], want.SHA256[:12])
		}
	}
	return m, nil
}

// Path returns the full path of an artifact inside the dataset, checking it
// is listed in the manifest.
func (m Manifest) Path(dir, name string) (string, error) {
	if _, ok := m.Files[name]; !ok {
		return "", fmt.Errorf("dataset: manifest has no %s", name)
	}
	return filepath.Join(dir, name), nil
}

// Has reports whether the manifest lists an artifact.
func (m Manifest) Has(name string) bool {
	_, ok := m.Files[name]
	return ok
}
