package ingest

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpuresilience/internal/logfuzz"
	"gpuresilience/internal/obs"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

var testBase = time.Date(2023, 6, 1, 12, 0, 0, 0, time.UTC)

// orderedLog renders n valid Xid records with non-decreasing timestamps
// (runs of equal timestamps every few lines, so shard-boundary tie-breaks
// are exercised), interleaved with noise and malformed Xid-shaped lines —
// the realistic worst case the merge invariant must survive.
func orderedLog(n int, seed uint64) []byte {
	rng := rand.New(rand.NewSource(int64(seed)))
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		// Every third line shares the previous timestamp.
		ts := testBase.Add(time.Duration(i-i/3) * time.Second)
		ev := xid.Event{
			Time:   xid.Time(ts.UnixNano()),
			Node:   fmt.Sprintf("gpub%03d", rng.Intn(5)+1),
			GPU:    int32(rng.Intn(4)),
			Code:   []xid.Code{xid.MMU, xid.NVLink, xid.DBE, xid.GSPError}[rng.Intn(4)],
			Detail: fmt.Sprintf("fault at 0x%08x", i),
		}
		buf.WriteString(string(syslog.AppendLine(nil, ev, 1000+i, "python")))
		buf.WriteByte('\n')
		if rng.Intn(4) == 0 {
			buf.WriteString(string(syslog.AppendNoise(nil, ts, ev.Node, i)))
			buf.WriteByte('\n')
		}
		if rng.Intn(16) == 0 { // malformed Xid-shaped line (counts as Malformed)
			buf.WriteString(strings.Replace(string(syslog.AppendLine(nil, ev, 1, "x")),
				"PCI:0000", "PCI:dead", 1))
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

// messyLog emits a writer-generated log (duplicates, noise) with event
// spacing wide enough that the duplicate trains stay time-ordered.
func messyLog(t *testing.T, events int, seed uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := syslog.NewWriter(&buf, syslog.DefaultWriterConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	codes := []xid.Code{xid.MMU, xid.NVLink, xid.DBE, xid.GSPError}
	for i := 0; i < events; i++ {
		ev := xid.Event{
			Time:   xid.Time(testBase.Add(time.Duration(i) * 7 * time.Second).UnixNano()),
			Node:   []string{"gpub001", "gpub002", "gpub003"}[i%3],
			GPU:    int32(i % 4),
			Code:   codes[i%len(codes)],
			Detail: "detail",
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

// splitLines cuts data into k parts at line boundaries chosen by rng. Parts
// may be empty (a cut repeated) and may hold a single line.
func splitLines(data []byte, k int, rng *rand.Rand) [][]byte {
	lines := bytes.SplitAfter(data, []byte("\n"))
	if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
		lines = lines[:n-1]
	}
	cuts := make([]int, k-1)
	for i := range cuts {
		cuts[i] = rng.Intn(len(lines) + 1)
	}
	cuts = append(cuts, 0, len(lines))
	sortInts(cuts)
	parts := make([][]byte, 0, k+1)
	for i := 1; i < len(cuts); i++ {
		parts = append(parts, bytes.Join(lines[cuts[i-1]:cuts[i]], nil))
	}
	return parts
}

// sortInts is a tiny insertion sort so the test file does not pull in
// package sort for one slice.
func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for k := i; k > 0 && v[k] < v[k-1]; k-- {
			v[k], v[k-1] = v[k-1], v[k]
		}
	}
}

// writeShards materializes parts as shard_%03d.log files under a fresh
// directory and returns its plan (directory expansion sorts by name, so
// plan order equals concatenation order).
func writeShards(t *testing.T, parts [][]byte) (string, Plan) {
	t.Helper()
	dir := t.TempDir()
	for i, part := range parts {
		path := filepath.Join(dir, fmt.Sprintf("shard_%03d.log", i))
		if err := os.WriteFile(path, part, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := PlanFiles([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) != len(parts) {
		t.Fatalf("planned %d shards from %d parts", len(plan.Shards), len(parts))
	}
	return dir, plan
}

// referenceExtract runs the unsharded Stage I over the whole stream.
func referenceExtract(t *testing.T, data []byte, workers int) ([]xid.Event, syslog.ExtractStats) {
	t.Helper()
	ext, err := ExtractReader(bytes.NewReader(data), Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return flat(ext), ext.Stats
}

// flat is a result's segments concatenated.
func flat(res *Result) []xid.Event { return concatShards(res.Segments) }

// blockLen is how many events the one-worker scan's segments hold.
const blockLen = 2048

// sameEvents compares two event streams field by field.
func sameEvents(t *testing.T, got, want []xid.Event, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Time != w.Time || g.Node != w.Node || g.GPU != w.GPU ||
			g.Code != w.Code || g.Detail != w.Detail {
			t.Fatalf("%s: event %d: %+v != %+v", ctx, i, g, w)
		}
	}
}

// TestShardedExtractMatchesUnsplit is the core differential property: for
// random line-boundary splits of one time-ordered log — including empty
// and single-line shards — the sharded extraction reproduces the unsplit
// Stage I stream and statistics exactly, at every worker count.
func TestShardedExtractMatchesUnsplit(t *testing.T) {
	data := orderedLog(400, 11)
	wantEvents, wantStats := referenceExtract(t, data, 1)
	if len(wantEvents) == 0 {
		t.Fatal("reference extraction found no events")
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		k := 1 + rng.Intn(7)
		parts := splitLines(data, k, rng)
		_, plan := writeShards(t, parts)
		for _, workers := range []int{1, 4, 16} {
			res, err := Extract(plan, Options{Workers: workers})
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			ctx := fmt.Sprintf("trial %d k=%d workers=%d", trial, k, workers)
			sameEvents(t, res.Events, wantEvents, ctx)
			if res.Stats != wantStats {
				t.Fatalf("%s: stats %+v, want %+v", ctx, res.Stats, wantStats)
			}
		}
	}
}

// TestShardedExtractSingleAndEmptyShards pins the degenerate split shapes:
// one shard per line, leading/trailing empty shards, and an all-empty
// plan member next to the whole file.
func TestShardedExtractSingleAndEmptyShards(t *testing.T) {
	data := orderedLog(12, 5)
	wantEvents, wantStats := referenceExtract(t, data, 1)

	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	perLine := make([][]byte, 0, len(lines)+2)
	perLine = append(perLine, nil) // leading empty shard
	for _, l := range lines {
		perLine = append(perLine, l)
	}
	perLine = append(perLine, nil) // trailing empty shard
	_, plan := writeShards(t, perLine)
	res, err := Extract(plan, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sameEvents(t, res.Events, wantEvents, "one shard per line")
	if res.Stats != wantStats {
		t.Fatalf("per-line stats %+v, want %+v", res.Stats, wantStats)
	}
}

func TestExtractMessyWriterLog(t *testing.T) {
	data := messyLog(t, 60, 2)
	wantEvents, wantStats := referenceExtract(t, data, 1)
	rng := rand.New(rand.NewSource(9))
	_, plan := writeShards(t, splitLines(data, 4, rng))
	res, err := Extract(plan, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sameEvents(t, res.Events, wantEvents, "writer log")
	if res.Stats != wantStats {
		t.Fatalf("stats %+v, want %+v", res.Stats, wantStats)
	}
}

func TestExtractEmptyPlan(t *testing.T) {
	if _, err := Extract(Plan{}, Options{}); err == nil {
		t.Fatal("want error for empty plan")
	}
}

// TestExtractReaderMatchesSingleShard: a stream runs the same engine and
// instrumentation as a one-shard plan over the same bytes, and bypasses the
// cache — no cache counters, no ingest.shards gauge, no entries written.
func TestExtractReaderMatchesSingleShard(t *testing.T) {
	data := messyLog(t, 60, 4)
	_, plan := writeShards(t, [][]byte{data})
	for _, lenient := range []bool{false, true} {
		cacheDir := t.TempDir()
		fileReg, streamReg := obs.New(), obs.New()
		want, err := Extract(plan, Options{Workers: 4, Lenient: lenient, Obs: fileReg})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExtractReader(bytes.NewReader(data), Options{Workers: 4, Lenient: lenient,
			Cache: NewCache(cacheDir), Obs: streamReg})
		if err != nil {
			t.Fatal(err)
		}
		ctx := fmt.Sprintf("lenient=%v", lenient)
		sameEvents(t, flat(got), want.Events, ctx)
		if got.Stats != want.Stats || !reflect.DeepEqual(got.Ingestion, want.Ingestion) || got.Shards != nil {
			t.Fatalf("%s: stream result %+v, want %+v without shards", ctx, got, want)
		}
		snap, fileSnap := streamReg.Snapshot(), fileReg.Snapshot()
		span := "stage1.extract"
		if lenient {
			span = "stage1.lenient"
		}
		if names := spanNames(snap); len(names) != 1 || names[0] != span {
			t.Fatalf("%s: stream spans %v, want only %s", ctx, names, span)
		}
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, "cache.") || v != fileSnap.Counters[name] {
				t.Fatalf("%s: stream counter %s=%d, file run has %d", ctx, name, v, fileSnap.Counters[name])
			}
		}
		if _, ok := snap.Gauges["ingest.shards"]; ok {
			t.Fatalf("%s: stream set the ingest.shards gauge", ctx)
		}
		if entries, _ := filepath.Glob(filepath.Join(cacheDir, "*")); len(entries) != 0 {
			t.Fatalf("%s: stream wrote cache entries: %v", ctx, entries)
		}
	}
}

// spanNames lists the span names in a snapshot.
func spanNames(snap obs.Snapshot) []string {
	var names []string
	for _, sp := range snap.Spans {
		names = append(names, sp.Name)
	}
	return names
}

func hasSpan(snap obs.Snapshot, name string) bool {
	for _, sp := range snap.Spans {
		if sp.Name == name {
			return true
		}
	}
	return false
}

// TestCacheColdThenWarm is the tentpole acceptance check at the Extract
// level: a cold cached run misses and writes every shard, a warm re-run
// hits every shard, produces the identical stream and statistics, and
// never starts a Stage I span — the parse really is skipped, not repeated.
func TestCacheColdThenWarm(t *testing.T) {
	data := orderedLog(120, 3)
	rng := rand.New(rand.NewSource(31))
	_, plan := writeShards(t, splitLines(data, 3, rng))
	cacheDir := t.TempDir()
	k := int64(len(plan.Shards))

	coldReg := obs.New()
	cold, err := Extract(plan, Options{Workers: 4, Cache: NewCache(cacheDir), Obs: coldReg})
	if err != nil {
		t.Fatal(err)
	}
	coldSnap := coldReg.Snapshot()
	if coldSnap.Counters["cache.miss"] != k || coldSnap.Counters["cache.write"] != k {
		t.Fatalf("cold counters: %+v", coldSnap.Counters)
	}
	if !hasSpan(coldSnap, "stage1.extract") || !hasSpan(coldSnap, "stage1.shard.000") {
		t.Fatalf("cold run spans: %v", spanNames(coldSnap))
	}
	if coldSnap.Gauges["ingest.shards"] != k {
		t.Fatalf("cold gauge: %+v", coldSnap.Gauges)
	}
	for _, sh := range cold.Shards {
		if sh.Outcome != CacheMiss {
			t.Fatalf("cold shard outcome: %+v", sh)
		}
	}

	warmReg := obs.New()
	warm, err := Extract(plan, Options{Workers: 4, Cache: NewCache(cacheDir), Obs: warmReg})
	if err != nil {
		t.Fatal(err)
	}
	warmSnap := warmReg.Snapshot()
	if warmSnap.Counters["cache.hit"] != k {
		t.Fatalf("warm counters: %+v", warmSnap.Counters)
	}
	if len(warmSnap.Spans) != 0 {
		t.Fatalf("warm run started spans: %v", spanNames(warmSnap))
	}
	sameEvents(t, warm.Events, cold.Events, "warm vs cold")
	if warm.Stats != cold.Stats {
		t.Fatalf("warm stats %+v, cold %+v", warm.Stats, cold.Stats)
	}
	for i, sh := range warm.Shards {
		if sh.Outcome != CacheHit {
			t.Fatalf("warm shard outcome: %+v", sh)
		}
		if sh.Digest != cold.Shards[i].Digest {
			t.Fatalf("shard %d digest drifted between runs", i)
		}
	}
}

// outOfRangeLines are well-formed Xid lines dated outside the event
// record's int64-nanosecond range, one past each end.
const outOfRangeLines = "2300-01-01T00:00:00.000000Z gpub001 kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, name=p, year 2300\n" +
	"1600-01-01T00:00:00.000000Z gpub002 kernel: NVRM: Xid (PCI:0000:27:00): 31, pid=1, name=p, year 1600\n"

// TestCacheOutOfRangeTimestampsColdWarm: Stage I counts a timestamp the
// event record cannot hold as malformed, so a warm cache serves exactly
// what the cold parse produced. The cache stores Unix nanoseconds, which
// Go leaves undefined outside that range: before the rule, a warm run
// returned the 2300 line as a date in 1715 and the 1600 line as 2184.
func TestCacheOutOfRangeTimestampsColdWarm(t *testing.T) {
	clean := orderedLog(40, 53)
	data := append(append([]byte(nil), clean...), outOfRangeLines...)
	_, plan := writeShards(t, [][]byte{data})
	cacheDir := t.TempDir()

	cold, counters := runCached(t, plan, NewCache(cacheDir))
	if counters["cache.write"] != 1 {
		t.Fatalf("cold counters: %+v", counters)
	}
	warm, counters := runCached(t, plan, NewCache(cacheDir))
	if counters["cache.hit"] != 1 {
		t.Fatalf("warm counters: %+v", counters)
	}
	sameEvents(t, warm.Events, cold.Events, "warm vs cold")
	if warm.Stats != cold.Stats {
		t.Fatalf("warm stats %+v, cold %+v", warm.Stats, cold.Stats)
	}

	ref, err := ExtractReader(bytes.NewReader(clean), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameEvents(t, cold.Events, flat(ref), "cold vs the log without the two lines")
	want := ref.Stats
	want.Lines += 2
	want.Malformed += 2
	if cold.Stats != want {
		t.Fatalf("cold stats %+v, want %+v", cold.Stats, want)
	}

	lenient, err := ExtractReader(bytes.NewReader(data), Options{Workers: 1, Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	refLenient, err := ExtractReader(bytes.NewReader(clean), Options{Workers: 1, Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, base := lenient.Ingestion.Bad[syslog.ClassBadTimestamp], refLenient.Ingestion.Bad[syslog.ClassBadTimestamp]; got != base+2 {
		t.Fatalf("lenient run quarantined %d bad timestamps, want %d", got, base+2)
	}
}

// runCached is a helper running Extract with a cache rooted at dir and
// returning the run's counter snapshot.
func runCached(t *testing.T, plan Plan, cache *Cache) (*Result, map[string]int64) {
	t.Helper()
	reg := obs.New()
	res, err := Extract(plan, Options{Workers: 2, Cache: cache, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	return res, reg.Snapshot().Counters
}

// TestCacheInvalidationOnSourceChange: appending one line to a source log
// invalidates exactly that shard, and the re-parse picks up the new line.
func TestCacheInvalidationOnSourceChange(t *testing.T) {
	data := orderedLog(60, 17)
	rng := rand.New(rand.NewSource(41))
	dir, plan := writeShards(t, splitLines(data, 3, rng))
	cacheDir := t.TempDir()

	runCached(t, plan, NewCache(cacheDir)) // populate

	// Append a fresh, later record to the last shard's file.
	extra := string(syslog.AppendLine(nil, xid.Event{
		Time: xid.Time(testBase.Add(24 * time.Hour).UnixNano()), Node: "gpub009", GPU: 1,
		Code: xid.MMU, Detail: "appended"}, 7, "python")) + "\n"
	last := filepath.Join(dir, fmt.Sprintf("shard_%03d.log", len(plan.Shards)-1))
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(extra); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	plan, err = PlanFiles([]string{dir}) // re-stat the grown file
	if err != nil {
		t.Fatal(err)
	}

	res, counters := runCached(t, plan, NewCache(cacheDir))
	if counters["cache.invalidated"] != 1 || counters["cache.hit"] != int64(len(plan.Shards)-1) {
		t.Fatalf("after touch: %+v", counters)
	}
	lastEv := res.Events[len(res.Events)-1]
	if lastEv.Detail != "appended" {
		t.Fatalf("re-parse missed the appended record: %+v", lastEv)
	}

	// The overwritten entry serves hits again.
	_, counters = runCached(t, plan, NewCache(cacheDir))
	if counters["cache.hit"] != int64(len(plan.Shards)) {
		t.Fatalf("after re-cache: %+v", counters)
	}
}

// TestCacheInvalidationOnConfigChange: a different parser configuration
// never serves another key's entries.
func TestCacheInvalidationOnConfigChange(t *testing.T) {
	data := orderedLog(40, 19)
	rng := rand.New(rand.NewSource(43))
	_, plan := writeShards(t, splitLines(data, 2, rng))
	cacheDir := t.TempDir()
	k := int64(len(plan.Shards))

	runCached(t, plan, NewCache(cacheDir)) // populate under the default key

	bumped := &Cache{Dir: cacheDir, Key: CacheKey{ParserVersion: ParserVersion + 1, Strict: true}}
	_, counters := runCached(t, plan, bumped)
	if counters["cache.invalidated"] != k || counters["cache.hit"] != 0 {
		t.Fatalf("config change: %+v", counters)
	}
	// The bumped runs overwrote the entries; the old key now invalidates.
	_, counters = runCached(t, plan, NewCache(cacheDir))
	if counters["cache.invalidated"] != k {
		t.Fatalf("old key after overwrite: %+v", counters)
	}
}

// TestCacheInvalidationOnFormatVersionBump: an on-disk entry from a future
// (or past) container version re-parses instead of being trusted.
func TestCacheInvalidationOnFormatVersionBump(t *testing.T) {
	data := orderedLog(30, 23)
	_, plan := writeShards(t, [][]byte{data})
	cacheDir := t.TempDir()

	runCached(t, plan, NewCache(cacheDir))
	entries, err := filepath.Glob(filepath.Join(cacheDir, "*.evshard"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache entries: %v, %v", entries, err)
	}
	// Rewrite the entry with a bumped format version and a re-stamped
	// checksum, as a binary from a newer release would have written it.
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	patchFormatVersion(raw, FormatVersion+1)
	if err := os.WriteFile(entries[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, counters := runCached(t, plan, NewCache(cacheDir))
	if counters["cache.invalidated"] != 1 {
		t.Fatalf("version bump: %+v", counters)
	}

	// And a truncated (corrupt) entry behaves the same way.
	if err := os.WriteFile(entries[0], raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, counters = runCached(t, plan, NewCache(cacheDir))
	if counters["cache.invalidated"] != 1 {
		t.Fatalf("truncated entry: %+v", counters)
	}

	// Deleting the entry is a plain miss.
	if err := os.Remove(entries[0]); err != nil {
		t.Fatal(err)
	}
	_, counters = runCached(t, plan, NewCache(cacheDir))
	if counters["cache.miss"] != 1 {
		t.Fatalf("deleted entry: %+v", counters)
	}
}

// TestLenientRunsBypassCache: lenient mode neither reads nor writes the
// cache (quarantine state is not persisted) and says so in the counters.
func TestLenientRunsBypassCache(t *testing.T) {
	data := orderedLog(30, 29)
	rng := rand.New(rand.NewSource(47))
	_, plan := writeShards(t, splitLines(data, 2, rng))
	cacheDir := t.TempDir()

	reg := obs.New()
	res, err := Extract(plan, Options{Workers: 2, Lenient: true, Cache: NewCache(cacheDir), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	counters := reg.Snapshot().Counters
	if counters["cache.bypass"] != int64(len(plan.Shards)) || counters["cache.write"] != 0 {
		t.Fatalf("lenient cache counters: %+v", counters)
	}
	for _, sh := range res.Shards {
		if sh.Outcome != CacheBypass {
			t.Fatalf("lenient shard outcome: %+v", sh)
		}
	}
	if entries, _ := filepath.Glob(filepath.Join(cacheDir, "*.evshard")); len(entries) != 0 {
		t.Fatalf("lenient run wrote cache entries: %v", entries)
	}
	if res.Ingestion == nil {
		t.Fatal("lenient run returned no ingestion report")
	}
}

// referenceLenient runs the single-stream lenient extractor.
func referenceLenient(t *testing.T, data []byte, opt syslog.LenientOptions) ([]xid.Event, *syslog.IngestionReport, error) {
	t.Helper()
	ext, err := ExtractReader(bytes.NewReader(data), Options{Workers: 1, Lenient: true, LenientOptions: opt})
	return flat(ext), ext.Ingestion, err
}

// TestLenientShardedMatchesSingle: a logfuzz-corrupted log split at line
// boundaries recovers the same events and the same merged ingestion report
// (counts, quarantine samples with rebased line numbers, budget status) as
// the single-stream lenient run.
func TestLenientShardedMatchesSingle(t *testing.T) {
	clean := orderedLog(300, 37)
	// Every op except reorder: a reorder relocates intact (still-parseable)
	// lines out of time order, where the single stream and the
	// normalization-then-merge path legitimately disagree — the merge
	// contract covers time-ordered records only.
	ops := []logfuzz.Op{logfuzz.OpTruncate, logfuzz.OpSplit, logfuzz.OpMerge,
		logfuzz.OpBitFlip, logfuzz.OpDupChunk, logfuzz.OpGarbage, logfuzz.OpOversize}
	corrupted, _, err := logfuzz.Corrupt(clean, logfuzz.Config{
		Seed: 99, Rate: 0.04, Ops: ops, OversizeBytes: 16 << 10,
		Parses: func(line []byte) bool {
			_, ok, perr := syslog.ParseLine(string(line))
			return ok && perr == nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	lopt := syslog.LenientOptions{MaxLineBytes: 8 << 10}
	wantEvents, wantRep, err := referenceLenient(t, corrupted, lopt)
	if err != nil {
		t.Fatal(err)
	}
	if wantRep.BadTotal == 0 {
		t.Fatal("corruption produced no bad lines; raise the rate")
	}

	rng := rand.New(rand.NewSource(53))
	_, plan := writeShards(t, splitLines(corrupted, 4, rng))
	res, err := Extract(plan, Options{Workers: 4, Lenient: true, LenientOptions: lopt})
	if err != nil {
		t.Fatal(err)
	}
	sameEvents(t, res.Events, wantEvents, "lenient sharded")
	if res.Ingestion == nil {
		t.Fatal("no merged ingestion report")
	}
	if !reflect.DeepEqual(res.Ingestion, wantRep) {
		t.Fatalf("merged report diverges:\n got: %+v\nwant: %+v", res.Ingestion, wantRep)
	}
}

// TestLenientMergedBudgets: error budgets are enforced over the merged
// totals — a fraction harmless per shard but fatal overall fails, and the
// absolute budget fails even when no single shard exceeds it.
func TestLenientMergedBudgets(t *testing.T) {
	// A fully clean log (records only), so the bad-line arithmetic below is
	// exact: every corrupt line is one of the injected garbage lines.
	var goodBuf bytes.Buffer
	for i := 0; i < 100; i++ {
		goodBuf.WriteString(string(syslog.AppendLine(nil, xid.Event{
			Time: xid.Time(testBase.Add(time.Duration(i) * time.Second).UnixNano()), Node: "gpub001",
			GPU: 0, Code: xid.MMU, Detail: "d"}, 1000+i, "python")))
		goodBuf.WriteByte('\n')
	}
	good := goodBuf.Bytes()
	var bad bytes.Buffer
	for i := 0; i < 4; i++ {
		bad.WriteString("binary \xff\xfe\xfd garbage\n")
	}

	t.Run("absolute budget over merged totals", func(t *testing.T) {
		// Two shards with 2 bad lines each: neither exceeds MaxBadLines=3
		// alone, the merged total of 4 does.
		half := bad.Bytes()[:len(bad.Bytes())/2]
		shard := append(append([]byte{}, good...), half...)
		_, plan := writeShards(t, [][]byte{shard, append([]byte(nil), shard...)})
		res, err := Extract(plan, Options{Workers: 2, Lenient: true,
			LenientOptions: syslog.LenientOptions{MaxBadLines: 3}})
		var be *syslog.BudgetError
		if !errors.As(err, &be) || be.Kind != syslog.BudgetLines {
			t.Fatalf("err = %v, want BudgetLines", err)
		}
		if res == nil || res.Ingestion == nil || !res.Ingestion.Budget.Exceeded {
			t.Fatalf("budget-exceeded report missing: %+v", res)
		}
	})

	t.Run("fraction evaluated globally not per shard", func(t *testing.T) {
		// Shard 2 is 100% bad on its own; diluted by shard 1 the merged
		// fraction is far below the budget, so the run must succeed.
		_, plan := writeShards(t, [][]byte{good, bad.Bytes()})
		res, err := Extract(plan, Options{Workers: 2, Lenient: true,
			LenientOptions: syslog.LenientOptions{MaxBadFrac: 0.5}})
		if err != nil {
			t.Fatalf("diluted fraction failed: %v", err)
		}
		if res.Ingestion.BadTotal != 4 {
			t.Fatalf("bad total: %+v", res.Ingestion)
		}

		// With a budget below the merged fraction it fails as
		// BudgetFraction.
		_, err = Extract(plan, Options{Workers: 2, Lenient: true,
			LenientOptions: syslog.LenientOptions{MaxBadFrac: 0.0001}})
		var be *syslog.BudgetError
		if !errors.As(err, &be) || be.Kind != syslog.BudgetFraction {
			t.Fatalf("err = %v, want BudgetFraction", err)
		}
	})
}

// TestEventBlockBoundaries: the one-worker scan hands Stage I's events
// over in blockLen-sized blocks. Streams just short of, exactly at, just past and several blocks
// past a block boundary must come out whole and in the order the engine's
// own callback yields them — through ExtractReader, and through a
// three-shard Extract whose every shard holds the boundary count, cold and
// then served from the cache.
func TestEventBlockBoundaries(t *testing.T) {
	for _, n := range []int{blockLen - 1, blockLen, blockLen + 1, 3*blockLen + 7} {
		data := orderedLog(3*n, uint64(n))
		var want []xid.Event
		if _, _, err := syslog.Extract(bytes.NewReader(data), syslog.Options{Workers: 1}, func(ev xid.Event) error {
			want = append(want, ev)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(want) != 3*n {
			t.Fatalf("n=%d: log holds %d events, want %d", n, len(want), 3*n)
		}

		// Record i's lines start at the first line carrying its detail, so
		// cutting there gives shards of exactly n events each.
		cut := func(i int) int {
			at := bytes.Index(data, []byte(fmt.Sprintf("fault at 0x%08x", i)))
			return bytes.LastIndexByte(data[:at], '\n') + 1
		}
		part := data[:cut(n)]
		for _, workers := range []int{1, 4} {
			got, err := ExtractReader(bytes.NewReader(part), Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			sameEvents(t, flat(got), want[:n], fmt.Sprintf("n=%d stream workers=%d", n, workers))
		}

		_, plan := writeShards(t, [][]byte{part, data[cut(n):cut(2*n)], data[cut(2*n):]})
		cache := NewCache(t.TempDir())
		for _, pass := range []string{"cold", "warm"} {
			got, err := Extract(plan, Options{Workers: 2, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			for _, sh := range got.Shards {
				if sh.Events != n || (pass == "warm") != (sh.Outcome == CacheHit) {
					t.Fatalf("n=%d %s: shard %+v", n, pass, sh)
				}
			}
			sameEvents(t, got.Events, want, fmt.Sprintf("n=%d %s shards", n, pass))
		}
	}
}

// TestSegmentsMatchPerShardRuns: ExtractSegments hands over every shard's
// events as Stage I filled them, in plan order, and writes each parsed
// shard's cache entry from its segments. For cold, warm and mixed
// three-shard plans, with shards below, across and well past a block
// boundary, at 1 and 4 workers: the segments are the per-shard
// ExtractReader runs concatenated, a cache hit is its shard's one segment,
// and every .evshard entry is byte-equal to EncodeShard of its shard's own
// parse.
func TestSegmentsMatchPerShardRuns(t *testing.T) {
	parts := [][]byte{orderedLog(blockLen+1, 11), orderedLog(5, 12), orderedLog(2*blockLen+3, 13)}
	_, plan := writeShards(t, parts)
	var want []xid.Event
	entries := make([][]byte, len(parts))
	key := DefaultCacheKey()
	for i, part := range parts {
		own, err := ExtractReader(bytes.NewReader(part), Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, flat(own)...)
		entries[i] = EncodeShard(&Payload{
			SourceDigest: sha256.Sum256(part), ConfigDigest: key.digest(),
			SourcePath: plan.Shards[i].Path, Stats: own.Stats, Events: flat(own),
		})
	}

	for _, workers := range []int{1, 4} {
		for _, mode := range []string{"cold", "warm", "mixed"} {
			ctx := fmt.Sprintf("workers=%d %s", workers, mode)
			cache := NewCache(t.TempDir())
			var fill Plan
			switch mode {
			case "warm":
				fill = plan
			case "mixed":
				fill = Plan{Shards: plan.Shards[1:2]}
			}
			if len(fill.Shards) > 0 {
				if _, err := ExtractSegments(fill, Options{Workers: workers, Cache: cache}); err != nil {
					t.Fatal(err)
				}
			}
			got, err := ExtractSegments(plan, Options{Workers: workers, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			sameEvents(t, flat(got), want, ctx)
			if got.Events != nil {
				t.Fatalf("%s: ExtractSegments set Events", ctx)
			}
			if mode == "warm" && len(got.Segments) != len(parts) {
				t.Fatalf("%s: %d segments from %d cache hits", ctx, len(got.Segments), len(parts))
			}
			for i, sh := range got.Shards {
				hit := mode == "warm" || (mode == "mixed" && i == 1)
				if hit != (sh.Outcome == CacheHit) {
					t.Fatalf("%s: shard %d outcome %v", ctx, i, sh.Outcome)
				}
				entry, err := os.ReadFile(cache.entryPath(sh.Path))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(entry, entries[i]) {
					t.Fatalf("%s: shard %d cache entry differs from EncodeShard of its own parse", ctx, i)
				}
			}
		}
	}
}

// TestFailedRunStoresNoEntries: cache entries are written only once every
// shard has parsed, so a strict run that fails on an overlong line in its
// last shard leaves no entry behind, even for the shards that parsed.
func TestFailedRunStoresNoEntries(t *testing.T) {
	bad := append(orderedLog(3, 22), strings.Repeat("x", syslog.MaxLineBytes+1)...)
	_, plan := writeShards(t, [][]byte{orderedLog(50, 20), orderedLog(50, 21), append(bad, '\n')})
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		reg := obs.New()
		if _, err := Extract(plan, Options{Workers: workers, Cache: NewCache(dir), Obs: reg}); err == nil {
			t.Fatalf("workers=%d: an overlong line did not fail the strict run", workers)
		}
		if n := reg.Snapshot().Counters["cache.write"]; n != 0 {
			t.Fatalf("workers=%d: cache.write = %d after a failed run", workers, n)
		}
		if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
			t.Fatalf("workers=%d: cache dir holds %d entries after a failed run (%v)", workers, len(left), err)
		}
	}
}
