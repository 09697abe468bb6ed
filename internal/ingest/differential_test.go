// Differential battery at the pipeline level: the sharded multi-file front
// end must render Tables I-III and the availability section byte-identical
// to the single-stream pipeline, at any worker count, cold or cache-warm.
// The tests live in an external package because they drive internal/core,
// which itself imports internal/ingest.
package ingest_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/cluster"
	"gpuresilience/internal/core"
	"gpuresilience/internal/ingest"
	"gpuresilience/internal/obs"
	"gpuresilience/internal/report"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/workload"
	"gpuresilience/internal/xid"
)

// operationalLog renders a time-ordered log inside the calibrated
// operational period so Tables I-III have non-trivial rows.
func operationalLog(t *testing.T, n int, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := syslog.NewWriter(&buf, syslog.DefaultWriterConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	base := calib.Op().Start.Add(24 * time.Hour)
	codes := []xid.Code{xid.MMU, xid.NVLink, xid.DBE, xid.GSPError, xid.FallenOffBus}
	for i := 0; i < n; i++ {
		ev := xid.Event{
			Time:   xid.Time(base.Add(time.Duration(i) * 11 * time.Second).UnixNano()),
			Node:   fmt.Sprintf("gpub%03d", rng.Intn(8)+1),
			GPU:    int32(rng.Intn(4)),
			Code:   codes[rng.Intn(len(codes))],
			Detail: "d",
		}
		if _, err := w.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// splitIntoFiles writes data as k files split at line boundaries under a
// fresh directory, named so that directory order equals stream order.
func splitIntoFiles(t *testing.T, data []byte, k int, rng *rand.Rand) string {
	t.Helper()
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	dir := t.TempDir()
	cuts := []int{0, len(lines)}
	for i := 0; i < k-1; i++ {
		cuts = append(cuts, rng.Intn(len(lines)+1))
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] < cuts[i-1] {
			for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
				cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
			}
		}
	}
	for i := 1; i < len(cuts); i++ {
		part := bytes.Join(lines[cuts[i-1]:cuts[i]], nil)
		name := filepath.Join(dir, fmt.Sprintf("part_%03d.log", i-1))
		if err := os.WriteFile(name, part, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// renderAll renders the full report (Tables I-III + availability) to bytes.
func renderAll(t *testing.T, res *core.Results) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := report.WriteAll(&buf, res); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteFindings(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedTablesByteIdenticalToSingleStream is the tentpole acceptance
// criterion: sharded multi-file ingestion of a split log renders Tables
// I-III and availability byte-identical to the single-file run at workers
// 1, 4, and 16.
func TestShardedTablesByteIdenticalToSingleStream(t *testing.T) {
	data := operationalLog(t, 300, 77)
	rng := rand.New(rand.NewSource(101))
	dir := splitIntoFiles(t, data, 5, rng)

	for _, workers := range []int{1, 4, 16} {
		cfg := core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes)
		cfg.Workers = workers
		single, err := core.AnalyzeLogs(bytes.NewReader(data), nil, nil, workload.CPURecord{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := core.AnalyzeLogFiles([]string{dir}, nil, nil, workload.CPURecord{}, cfg, core.IngestConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want, got := renderAll(t, single), renderAll(t, sharded)
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: sharded report diverges from single-stream\n--- sharded ---\n%s\n--- single ---\n%s",
				workers, got, want)
		}
		if sharded.Extract != single.Extract {
			t.Fatalf("workers=%d: extract stats %+v != %+v", workers, sharded.Extract, single.Extract)
		}
		if len(sharded.Shards) != 5 {
			t.Fatalf("workers=%d: shard records: %+v", workers, sharded.Shards)
		}
	}
}

// TestCacheWarmPipelineByteIdentical: a cache-warm AnalyzeLogFiles run
// renders the identical report while skipping Stage I entirely — no
// stage1.extract span, every shard a cache hit.
func TestCacheWarmPipelineByteIdentical(t *testing.T) {
	data := operationalLog(t, 200, 79)
	rng := rand.New(rand.NewSource(103))
	dir := splitIntoFiles(t, data, 3, rng)
	cacheDir := t.TempDir()

	run := func() (*core.Results, obs.Snapshot) {
		reg := obs.New()
		cfg := core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes)
		cfg.Workers = 4
		cfg.Obs = reg
		res, err := core.AnalyzeLogFiles([]string{dir}, nil, nil, workload.CPURecord{},
			cfg, core.IngestConfig{CacheDir: cacheDir})
		if err != nil {
			t.Fatal(err)
		}
		return res, reg.Snapshot()
	}

	cold, coldSnap := run()
	warm, warmSnap := run()

	if coldSnap.Counters["cache.miss"] != 3 || coldSnap.Counters["cache.write"] != 3 {
		t.Fatalf("cold counters: %+v", coldSnap.Counters)
	}
	hasExtract := func(s obs.Snapshot) bool {
		for _, sp := range s.Spans {
			if sp.Name == "stage1.extract" {
				return true
			}
		}
		return false
	}
	if !hasExtract(coldSnap) {
		t.Fatal("cold run did not record stage1.extract")
	}
	if hasExtract(warmSnap) {
		t.Fatal("warm run re-ran Stage I")
	}
	if warmSnap.Counters["cache.hit"] != 3 {
		t.Fatalf("warm counters: %+v", warmSnap.Counters)
	}
	want, got := renderAll(t, cold), renderAll(t, warm)
	if !bytes.Equal(got, want) {
		t.Fatalf("warm report diverges from cold:\n--- warm ---\n%s\n--- cold ---\n%s", got, want)
	}
}

// splitByNode writes one file per node (the line's second field) under a
// fresh directory and returns the files in name order. Each file keeps its
// node's lines in log order, but the files interleave in time, so
// concatenating them in any order gives a log far from time order.
func splitByNode(t *testing.T, data []byte) []string {
	t.Helper()
	parts := make(map[string][]byte)
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if f := bytes.Fields(line); len(f) > 1 {
			parts[string(f[1])] = append(parts[string(f[1])], line...)
		}
	}
	dir := t.TempDir()
	var paths []string
	for node, part := range parts {
		path := filepath.Join(dir, node+".log")
		if err := os.WriteFile(path, part, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	slices.Sort(paths)
	return paths
}

// perNode is a simulated log and job database, and the log split into
// one file per node.
type perNode struct {
	logs, jobDB bytes.Buffer
	repairs     []time.Duration
	cpu         workload.CPURecord
	paths       []string
}

// perNodeInputs simulates seed 23 at scale 0.005 and splits its log by
// node (splitByNode).
func perNodeInputs(t *testing.T) *perNode {
	t.Helper()
	in := &perNode{}
	sc := calib.NewScenario(23, 0.005)
	out, err := core.EndToEnd(core.EndToEndConfig{
		Cluster:     sc.Cluster,
		Pipeline:    core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes),
		KeepRawLogs: &in.logs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := slurmsim.DumpDB(&in.jobDB, out.Truth.Jobs); err != nil {
		t.Fatal(err)
	}
	in.repairs, in.cpu = cluster.Durations(out.Truth.Downtimes), out.Truth.CPU
	in.paths = splitByNode(t, in.logs.Bytes())
	if len(in.paths) < 8 {
		t.Fatalf("only %d per-node files", len(in.paths))
	}
	return in
}

// TestTablesIgnorePerNodeSplit is the metamorphic relation behind the
// concatenating front end: a simulated log split into per-node files,
// analyzed in plan order or in reverse, renders every table byte-identical
// to the original single log, at workers 1 and 4, cold and cache-warm.
func TestTablesIgnorePerNodeSplit(t *testing.T) {
	in := perNodeInputs(t)
	logs, jobDB, repairs, cpu, paths := in.logs, in.jobDB, in.repairs, in.cpu, in.paths
	reversed := slices.Clone(paths)
	slices.Reverse(reversed)

	for _, workers := range []int{1, 4} {
		cfg := core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes)
		cfg.Workers = workers
		single, err := core.AnalyzeLogs(bytes.NewReader(logs.Bytes()), bytes.NewReader(jobDB.Bytes()),
			repairs, cpu, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := renderAll(t, single)
		for _, order := range []struct {
			name  string
			paths []string
		}{{"plan", paths}, {"reversed", reversed}} {
			cacheDir := t.TempDir()
			for _, run := range []string{"cold", "warm"} {
				split, err := core.AnalyzeLogFiles(order.paths, bytes.NewReader(jobDB.Bytes()), repairs, cpu,
					cfg, core.IngestConfig{CacheDir: cacheDir})
				if err != nil {
					t.Fatal(err)
				}
				if got := renderAll(t, split); !bytes.Equal(got, want) {
					t.Fatalf("workers=%d %s order, %s: per-node split diverges from the single log\n--- split ---\n%s\n--- single ---\n%s",
						workers, order.name, run, got, want)
				}
				if split.Extract != single.Extract || split.RawEvents != single.RawEvents {
					t.Fatalf("workers=%d %s order, %s: extract %+v raw %d, single log %+v raw %d",
						workers, order.name, run, split.Extract, split.RawEvents, single.Extract, single.RawEvents)
				}
			}
		}
	}
}

// TestFormat1EntryReparsed: an entry written by the format-1 code, which
// stored a shard's events in source-line order, is counted invalidated,
// re-parsed and rewritten as the current format, and the tables equal a
// run with no cache. testdata/format1 holds a log whose two halves are
// swapped, so its lines are far from time order, and the format-1 entry
// written for it. The re-written entry then serves a hit with the same
// tables.
func TestFormat1EntryReparsed(t *testing.T) {
	log, err := os.ReadFile(filepath.Join("testdata", "format1", "shard.log"))
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(filepath.Join("testdata", "format1", "shard.evshard"))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(old[8:]); v != 1 {
		t.Fatalf("fixture holds format %d, want 1", v)
	}
	src := filepath.Join(t.TempDir(), "shard.log")
	if err := os.WriteFile(src, log, 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := t.TempDir()
	cfg := core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes)
	run := func(ing core.IngestConfig) ([]byte, map[string]int64) {
		reg := obs.New()
		c := cfg
		c.Obs = reg
		res, err := core.AnalyzeLogFiles([]string{src}, nil, nil, workload.CPURecord{}, c, ing)
		if err != nil {
			t.Fatal(err)
		}
		return renderAll(t, res), reg.Snapshot().Counters
	}
	want, _ := run(core.IngestConfig{})

	// A cold run names the entry; the fixture then takes its place.
	run(core.IngestConfig{CacheDir: cacheDir})
	entries, err := filepath.Glob(filepath.Join(cacheDir, "*.evshard"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache entries: %v, %v", entries, err)
	}
	if err := os.WriteFile(entries[0], old, 0o644); err != nil {
		t.Fatal(err)
	}

	got, counters := run(core.IngestConfig{CacheDir: cacheDir})
	if counters["cache.invalidated"] != 1 || counters["cache.write"] != 1 {
		t.Fatalf("format-1 entry: counters %+v", counters)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("format-1 entry: tables diverge from the uncached run\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	rewritten, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(rewritten[8:]); v != ingest.FormatVersion || v == 1 {
		t.Fatalf("re-written entry holds format %d, want %d", v, ingest.FormatVersion)
	}

	got, counters = run(core.IngestConfig{CacheDir: cacheDir})
	if counters["cache.hit"] != 1 {
		t.Fatalf("re-written entry: counters %+v", counters)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("re-written entry: tables diverge from the uncached run\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestTablesMixedCachePerNodeSplit: with the per-node files of
// TestTablesIgnorePerNodeSplit, which interleave in time, a cold run, the
// warm run after it, and a mixed run whose cache holds every other file
// (so warm runs and parsed segments alternate in the plan, in plan and
// reversed order) all render every table byte-identical to the single
// log, at workers 1, 4 and 16.
func TestTablesMixedCachePerNodeSplit(t *testing.T) {
	in := perNodeInputs(t)
	reversed := slices.Clone(in.paths)
	slices.Reverse(reversed)
	for _, workers := range []int{1, 4, 16} {
		cfg := core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes)
		cfg.Workers = workers
		single, err := core.AnalyzeLogs(bytes.NewReader(in.logs.Bytes()), bytes.NewReader(in.jobDB.Bytes()),
			in.repairs, in.cpu, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := renderAll(t, single)
		analyze := func(paths []string, cacheDir string) *core.Results {
			res, err := core.AnalyzeLogFiles(paths, bytes.NewReader(in.jobDB.Bytes()), in.repairs, in.cpu,
				cfg, core.IngestConfig{CacheDir: cacheDir})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		for _, order := range []struct {
			name  string
			paths []string
		}{{"plan", in.paths}, {"reversed", reversed}} {
			warmDir, mixedDir := t.TempDir(), t.TempDir()
			var half []string
			for i, p := range order.paths {
				if i%2 == 1 {
					half = append(half, p)
				}
			}
			analyze(half, mixedDir)
			for _, run := range []struct {
				name     string
				cacheDir string
				hits     int
			}{{"cold", warmDir, 0}, {"warm", warmDir, len(order.paths)}, {"mixed", mixedDir, len(half)}} {
				res := analyze(order.paths, run.cacheDir)
				hits := 0
				for i, sh := range res.Shards {
					if sh.Outcome == ingest.CacheHit {
						hits++
						if run.name == "mixed" && i%2 == 0 {
							t.Fatalf("workers=%d %s order, mixed: shard %d served from the cache", workers, order.name, i)
						}
					}
				}
				if hits != run.hits {
					t.Fatalf("workers=%d %s order, %s: %d cache hits, want %d", workers, order.name, run.name, hits, run.hits)
				}
				if got := renderAll(t, res); !bytes.Equal(got, want) {
					t.Fatalf("workers=%d %s order, %s: tables diverge from the single log\n--- split ---\n%s\n--- single ---\n%s",
						workers, order.name, run.name, got, want)
				}
				if res.Extract != single.Extract || res.RawEvents != single.RawEvents {
					t.Fatalf("workers=%d %s order, %s: extract %+v raw %d, single log %+v raw %d",
						workers, order.name, run.name, res.Extract, res.RawEvents, single.Extract, single.RawEvents)
				}
			}
		}
	}
}
