package core_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gpuresilience/internal/core"
	"gpuresilience/internal/ingest"
	"gpuresilience/internal/logfuzz"
	"gpuresilience/internal/syslog"
)

// physicalLines counts the lines of a log as Stage I's scanner splits it.
func physicalLines(b []byte) int {
	n := bytes.Count(b, []byte{'\n'})
	if len(b) > 0 && b[len(b)-1] != '\n' {
		n++
	}
	return n
}

// checkLineConservation asserts Stage I's line identities on one run: every
// raw line is exactly one of an Xid record, a malformed line or a skipped
// one, every record is one Stage II input event, on a sharded run every
// event is counted by exactly one shard record, whether the shard was
// parsed, encoded into its cache image or served from the cache, and
// Stage II keeps at most the events it read.
func checkLineConservation(t *testing.T, what string, res *core.Results, lines int) {
	t.Helper()
	st := res.Extract
	if st.Lines != lines {
		t.Errorf("%s: Stage I scanned %d lines, the input holds %d", what, st.Lines, lines)
	}
	if st.Lines != st.XIDLines+st.Malformed+st.Skipped {
		t.Errorf("%s: Lines %d != XIDLines %d + Malformed %d + Skipped %d",
			what, st.Lines, st.XIDLines, st.Malformed, st.Skipped)
	}
	if res.RawEvents != st.XIDLines {
		t.Errorf("%s: Stage II read %d events from %d Xid lines", what, res.RawEvents, st.XIDLines)
	}
	if res.Shards != nil {
		sum := 0
		for _, sh := range res.Shards {
			sum += sh.Events
		}
		if sum != res.RawEvents {
			t.Errorf("%s: the shard records hold %d events, Stage II read %d", what, sum, res.RawEvents)
		}
	}
	if res.CoalescedEvents > res.RawEvents {
		t.Errorf("%s: Stage II kept %d of %d events", what, res.CoalescedEvents, res.RawEvents)
	}
	if st.XIDLines == 0 || st.Skipped == 0 {
		t.Errorf("%s: vacuous run, stats %+v", what, st)
	}
}

// TestStageILineConservation checks the line identities on strict and
// lenient runs over one stream and over shards, with a cold and a warm
// cache (a strict cold shard reaches Stage II from the image its parse
// encoded, a strict hit's statistics come from its entry), on a clean log
// and on one damaged by logfuzz.
func TestStageILineConservation(t *testing.T) {
	d := loadDBDataset(t, 1)
	damaged, _, err := logfuzz.Corrupt(d.logs, logfuzz.Config{
		Seed:          7,
		Rate:          0.03,
		OversizeBytes: 64 << 10,
		Parses: func(line []byte) bool {
			_, ok, err := syslog.ParseLine(string(line))
			return ok && err == nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, log := range []struct {
		name string
		data []byte
	}{{"clean", d.logs}, {"damaged", damaged}} {
		dir := t.TempDir()
		half := len(log.data) / 2
		half += bytes.IndexByte(log.data[half:], '\n') + 1
		for i, part := range [][]byte{log.data[:half], log.data[half:]} {
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("part_%d.log", i)), part, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		lines := physicalLines(log.data)
		for _, lenient := range []bool{false, true} {
			cfg := pipeCfg()
			cfg.Lenient = lenient
			cfg.Workers = 2
			what := fmt.Sprintf("%s log, lenient=%v", log.name, lenient)
			res, err := core.AnalyzeLogs(bytes.NewReader(log.data), nil, nil, d.cpu, cfg)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			checkLineConservation(t, what+", one stream", res, lines)
			if log.name == "damaged" && res.Extract.Malformed == 0 {
				t.Fatalf("%s: the damage left no malformed line", what)
			}
			ing := core.IngestConfig{CacheDir: t.TempDir()}
			for _, run := range []string{"cold", "warm"} {
				res, err := core.AnalyzeLogFiles([]string{filepath.Join(dir, "*.log")}, nil, nil, d.cpu, cfg, ing)
				if err != nil {
					t.Fatalf("%s, %s: %v", what, run, err)
				}
				for _, sh := range res.Shards {
					// Lenient runs bypass the cache.
					if hit := sh.Outcome == ingest.CacheHit; hit != (run == "warm" && !lenient) {
						t.Fatalf("%s, %s: shard %s outcome %v", what, run, sh.Path, sh.Outcome)
					}
				}
				checkLineConservation(t, what+", sharded "+run, res, lines)
			}
		}
	}
}
