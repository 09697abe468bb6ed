// Package ingest is the multi-file Stage I front end: it expands the CLIs'
// -logs arguments (paths, globs, directories) into a deterministic shard
// plan, runs the existing pooled byte parsers concurrently per shard, and
// concatenates the per-shard event streams in plan order, so its output is
// Stage I over the concatenated files at any worker count. A compact
// columnar event-shard cache (.evshard files) persists each shard's parsed
// events keyed by the source file's SHA-256 and the parser configuration,
// so re-analysis skips Stage I entirely. See docs/ingest.md for the
// concatenation rule and the cache format.
package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Shard is one planned unit of Stage I work: a single log file plus its
// position in the deterministic plan order, the order the shards' events
// are concatenated in.
type Shard struct {
	// Path is the log file, cleaned but not made absolute (the plan is
	// reproducible from the same working directory).
	Path string
	// Bytes is the file's size at planning time.
	Bytes int64
	// Ordinal is the shard's position in the plan, starting at 0.
	Ordinal int
}

// Plan is a deterministic expansion of log patterns into per-file shards.
type Plan struct {
	// Shards lists the planned files in concatenation order.
	Shards []Shard
}

// globMeta are the metacharacters that make a pattern a glob rather than a
// literal path (the set filepath.Match interprets).
const globMeta = `*?[`

// Expand resolves each pattern into concrete file paths without requiring
// the files to exist: directories expand to their regular files sorted by
// name, glob patterns expand to their sorted matches (a glob matching
// nothing is an error, a literal path is kept as-is), and duplicates keep
// their first position. The expansion is deterministic: it depends only on
// the patterns and the directory listing, never on map or readdir order.
func Expand(patterns []string) ([]string, error) {
	var out []string
	seen := make(map[string]bool)
	add := func(p string) {
		p = filepath.Clean(p)
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	addDir := func(dir string) error {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("ingest: expand %s: %w", dir, err)
		}
		n := 0
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			if e.Type().IsRegular() {
				names = append(names, e.Name())
			}
		}
		sort.Strings(names)
		for _, name := range names {
			add(filepath.Join(dir, name))
			n++
		}
		if n == 0 {
			return fmt.Errorf("ingest: directory %s contains no regular files", dir)
		}
		return nil
	}
	for _, pat := range patterns {
		if st, err := os.Stat(pat); err == nil && st.IsDir() {
			if err := addDir(pat); err != nil {
				return nil, err
			}
			continue
		}
		if strings.ContainsAny(pat, globMeta) {
			matches, err := filepath.Glob(pat)
			if err != nil {
				return nil, fmt.Errorf("ingest: bad glob %q: %w", pat, err)
			}
			if len(matches) == 0 {
				return nil, fmt.Errorf("ingest: glob %q matched no files", pat)
			}
			sort.Strings(matches)
			for _, m := range matches {
				if st, err := os.Stat(m); err == nil && st.IsDir() {
					if err := addDir(m); err != nil {
						return nil, err
					}
					continue
				}
				add(m)
			}
			continue
		}
		add(pat)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("ingest: no log files")
	}
	return out, nil
}

// PlanFiles expands patterns (see Expand) and stats every resulting file
// into a shard plan. Unlike Expand it requires each planned file to exist
// and be a regular file, because the planner's byte sizes feed shard
// scheduling and the cache's source digests.
func PlanFiles(patterns []string) (Plan, error) {
	paths, err := Expand(patterns)
	if err != nil {
		return Plan{}, err
	}
	p := Plan{Shards: make([]Shard, 0, len(paths))}
	for i, path := range paths {
		st, err := os.Stat(path)
		if err != nil {
			return Plan{}, fmt.Errorf("ingest: plan: %w", err)
		}
		if !st.Mode().IsRegular() {
			return Plan{}, fmt.Errorf("ingest: plan: %s is not a regular file", path)
		}
		p.Shards = append(p.Shards, Shard{Path: path, Bytes: st.Size(), Ordinal: i})
	}
	return p, nil
}
