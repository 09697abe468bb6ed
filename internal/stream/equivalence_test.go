package stream_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/cluster"
	"gpuresilience/internal/core"
	"gpuresilience/internal/ingest"
	"gpuresilience/internal/report"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/stream"
	"gpuresilience/internal/workload"
)

// fixture is one simulated run kept as raw bytes plus ground truth, the
// shared input for the streaming-vs-batch equivalence tests.
type fixture struct {
	lines     []string
	jobs      []*slurmsim.Job
	downtimes []cluster.NodeDowntime
	cpu       workload.CPURecord
	cfg       core.PipelineConfig
}

var (
	fixtureOnce sync.Once
	fixtureVal  *fixture
	fixtureErr  error
)

func loadFixture(t *testing.T) *fixture {
	t.Helper()
	fixtureOnce.Do(func() {
		var buf bytes.Buffer
		sc := calib.NewScenario(11, 0.005)
		out, err := core.EndToEnd(core.EndToEndConfig{
			Cluster:     sc.Cluster,
			Pipeline:    core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes),
			KeepRawLogs: &buf,
		})
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureVal = &fixture{
			lines:     strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n"),
			jobs:      out.Truth.Jobs,
			downtimes: out.Truth.Downtimes,
			cpu:       out.Truth.CPU,
			cfg:       core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes),
		}
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	if len(fixtureVal.lines) < 1000 {
		t.Fatalf("fixture too small: %d raw lines", len(fixtureVal.lines))
	}
	return fixtureVal
}

func (f *fixture) streamConfig() stream.Config {
	return stream.Config{
		Pipeline:  f.cfg,
		Jobs:      f.jobs,
		Downtimes: f.downtimes,
		CPU:       f.cpu,
	}
}

// batchDocs renders the three table documents the way the batch CLIs do —
// the byte-level ground truth the streaming snapshot must reproduce.
func batchDocs(t *testing.T, f *fixture) map[string]string {
	t.Helper()
	logs := strings.NewReader(strings.Join(f.lines, "\n") + "\n")
	ext, err := ingest.ExtractReader(logs, ingest.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Analyze(slices.Concat(ext.Segments...), f.jobs, cluster.Durations(f.downtimes), f.cpu, f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Extract = ext.Stats

	docs := make(map[string]string, 3)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "scanned %d lines: %d XID lines, %d noise, %d malformed -> %d coalesced errors\n\n",
		res.Extract.Lines, res.Extract.XIDLines, res.Extract.Skipped,
		res.Extract.Malformed, res.CoalescedEvents)
	if err := report.WriteTableI(&buf, res); err != nil {
		t.Fatal(err)
	}
	docs[stream.TableXIDStat] = buf.String()

	buf.Reset()
	if err := report.WriteTableII(&buf, res); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&buf)
	if err := report.WriteTableIII(&buf, res); err != nil {
		t.Fatal(err)
	}
	docs[stream.TableJobImpact] = buf.String()

	buf.Reset()
	downByNode := make(map[string]float64)
	for _, d := range f.downtimes {
		downByNode[d.Node] += d.Duration().Hours()
	}
	if err := report.WriteAvailability(&buf, res.Avail, downByNode); err != nil {
		t.Fatal(err)
	}
	docs[stream.TableAvailability] = buf.String()
	return docs
}

// streamSnapshot ingests the fixture through an engine in chunks of the
// given size (advancing the watermark between chunks), flushes, and builds
// the published snapshot.
func streamSnapshot(t *testing.T, f *fixture, chunk int) *stream.Snapshot {
	t.Helper()
	eng, err := stream.New(f.streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	feed := stream.NewFeed(eng, "syslog")
	for i, line := range f.lines {
		if err := feed.Line(line); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if (i+1)%chunk == 0 {
			eng.Advance()
		}
	}
	eng.FlushAll()
	snap, err := stream.BuildSnapshot(eng)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// normalizeJSON zeroes the generation counter inside a document's embedded
// status: it counts state transitions, so it legitimately differs between
// ingest chunkings while everything else must not.
func normalizeJSON(t *testing.T, body []byte) string {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if st, ok := doc["status"].(map[string]any); ok {
		st["gen"] = 0
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestStreamingMatchesBatch is the correctness anchor: streaming the
// fixture log through the engine produces byte-identical table documents
// to the batch pipeline, at several ingest chunkings — line by line, small
// batches, and one big gulp.
func TestStreamingMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence fixture skipped in -short mode")
	}
	f := loadFixture(t)
	want := batchDocs(t, f)

	chunks := []int{1, 64, len(f.lines)}
	var first *stream.Snapshot
	for _, chunk := range chunks {
		snap := streamSnapshot(t, f, chunk)
		for _, name := range stream.TableNames() {
			doc := snap.Tables[name]
			if doc == nil {
				t.Fatalf("chunk %d: missing table %s", chunk, name)
			}
			if got := string(doc.Text); got != want[name] {
				t.Errorf("chunk %d: table %s text diverges from batch\n--- streaming\n%s\n--- batch\n%s",
					chunk, name, got, want[name])
			}
		}
		if snap.Status.Quarantine.Late != 0 {
			t.Errorf("chunk %d: quarantined %d events from an in-order log", chunk, snap.Status.Quarantine.Late)
		}
		if first == nil {
			first = snap
			continue
		}
		// Cross-chunking: the JSON documents (modulo the generation
		// counter) and the ETags of the text bodies must agree too.
		for _, name := range stream.TableNames() {
			a, b := first.Tables[name], snap.Tables[name]
			if normalizeJSON(t, a.JSON) != normalizeJSON(t, b.JSON) {
				t.Errorf("chunk %d: table %s JSON differs from chunk %d", chunk, name, chunks[0])
			}
			if a.TextETag != b.TextETag {
				t.Errorf("chunk %d: table %s text ETag differs from chunk %d", chunk, name, chunks[0])
			}
		}
	}
}
