package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Baseline is the committed suppression file (lint_baseline.json): the set
// of known findings gpulint tolerates. Entries match on analyzer, file, and
// message — not line numbers — so unrelated edits to a file do not churn the
// baseline. New findings (absent from the baseline) fail the run.
type Baseline struct {
	// Version is the file-format version (currently 1).
	Version int `json:"version"`
	// Findings are the tolerated findings, sorted for stable diffs.
	Findings []BaselineEntry `json:"findings"`
}

// BaselineEntry identifies one tolerated finding.
type BaselineEntry struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string `json:"analyzer"`
	// File is the module-root-relative path, forward slashes.
	File string `json:"file"`
	// Message is the finding's full message.
	Message string `json:"message"`
}

// ReadBaseline loads a baseline file. A missing file yields an empty
// baseline, so a clean repo needs no lint_baseline.json at all.
func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Baseline{Version: 1}, nil
	}
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("lint: parse baseline %s: %w", path, err)
	}
	if b.Version != 1 {
		return nil, fmt.Errorf("lint: baseline %s: unsupported version %d", path, b.Version)
	}
	return &b, nil
}

// Write renders the baseline as indented JSON (trailing newline included,
// keeping the committed artifact gofmt-diff friendly).
func (b *Baseline) Write(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// BaselineFrom builds a baseline covering every finding in fs,
// deduplicated and sorted.
func BaselineFrom(fs []Finding) *Baseline {
	seen := map[BaselineEntry]bool{}
	b := &Baseline{Version: 1}
	for _, f := range fs {
		e := BaselineEntry{Analyzer: f.Analyzer, File: f.File, Message: f.Message}
		if !seen[e] {
			seen[e] = true
			b.Findings = append(b.Findings, e)
		}
	}
	sort.Slice(b.Findings, func(i, j int) bool {
		a, c := b.Findings[i], b.Findings[j]
		if a.File != c.File {
			return a.File < c.File
		}
		if a.Analyzer != c.Analyzer {
			return a.Analyzer < c.Analyzer
		}
		return a.Message < c.Message
	})
	return b
}

// ApplyBaseline marks findings present in b as Baselined and returns fs.
func ApplyBaseline(fs []Finding, b *Baseline) []Finding {
	if b == nil || len(b.Findings) == 0 {
		return fs
	}
	set := make(map[BaselineEntry]bool, len(b.Findings))
	for _, e := range b.Findings {
		set[e] = true
	}
	for i := range fs {
		if set[BaselineEntry{Analyzer: fs[i].Analyzer, File: fs[i].File, Message: fs[i].Message}] {
			fs[i].Baselined = true
		}
	}
	return fs
}
