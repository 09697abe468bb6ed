package core_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/cluster"
	"gpuresilience/internal/core"
	"gpuresilience/internal/ingest"
	"gpuresilience/internal/report"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/workload"
	"gpuresilience/internal/xid"
)

// dbDataset is a simulated run as the raw-logs path reads it: the raw log,
// its Stage I events, the sacct dump, and the repair log and CPU record
// every analysis of it shares.
type dbDataset struct {
	logs    []byte
	events  []xid.Event // Stage I's output over logs
	db      []byte
	repairs []time.Duration
	cpu     workload.CPURecord
}

var (
	dbDatasetMu sync.Mutex
	dbDatasets  = map[uint64]*dbDataset{}
)

// loadDBDataset simulates seed at scale 0.05 once per test binary.
func loadDBDataset(t *testing.T, seed uint64) *dbDataset {
	t.Helper()
	dbDatasetMu.Lock()
	defer dbDatasetMu.Unlock()
	if d := dbDatasets[seed]; d != nil {
		return d
	}
	var logs bytes.Buffer
	out, err := core.EndToEnd(core.EndToEndConfig{
		Cluster:       calib.NewScenario(seed, 0.05).Cluster,
		Pipeline:      pipeCfg(),
		KeepRawLogs:   &logs,
		KeepRawEvents: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var db bytes.Buffer
	if err := slurmsim.DumpDB(&db, out.Truth.Jobs); err != nil {
		t.Fatal(err)
	}
	d := &dbDataset{logs: logs.Bytes(), events: out.RawEvents, db: db.Bytes(),
		repairs: cluster.Durations(out.Truth.Downtimes), cpu: out.Truth.CPU}
	dbDatasets[seed] = d
	return d
}

// reference renders core.Analyze over d's Stage I events and LoadDB's jobs
// from db: the in-memory path the one-pass path must agree with.
func (d *dbDataset) reference(t *testing.T, db []byte) string {
	t.Helper()
	jobs, err := slurmsim.LoadDB(bytes.NewReader(db))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Analyze(d.events, jobs, d.repairs, d.cpu, pipeCfg())
	if err != nil {
		t.Fatal(err)
	}
	return renderAll(t, res)
}

// shards writes d's log as three files cut at line boundaries and returns
// their glob.
func (d *dbDataset) shards(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	rest := d.logs
	for i := 0; i < 3; i++ {
		cut := len(rest)
		if i < 2 {
			cut = len(d.logs) / 3
			cut += bytes.IndexByte(rest[cut:], '\n') + 1
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("part_%03d.log", i)), rest[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rest = rest[cut:]
	}
	return filepath.Join(dir, "*.log")
}

// writeDB writes a sacct dump to a file, as the CLIs read it.
func writeDB(t *testing.T, db []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "jobs.db")
	if err := os.WriteFile(path, db, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func renderAll(t *testing.T, res *core.Results) string {
	t.Helper()
	var b bytes.Buffer
	if err := report.WriteAll(&b, res); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// analyzeFiles runs AnalyzeLogFiles with the job DB read from path ("" for
// none).
func (d *dbDataset) analyzeFiles(pattern, dbPath string, cfg core.PipelineConfig, ing core.IngestConfig) (*core.Results, error) {
	if dbPath == "" {
		return core.AnalyzeLogFiles([]string{pattern}, nil, d.repairs, d.cpu, cfg, ing)
	}
	f, err := os.Open(dbPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.AnalyzeLogFiles([]string{pattern}, f, d.repairs, d.cpu, cfg, ing)
}

// TestJobDBPassMatchesLoadDB holds the raw-logs path, which reads the job
// database as one pass after Stage III has every event, to core.Analyze
// over LoadDB's jobs: Tables I-III and Figure 2 render byte-equal through
// AnalyzeLogs and through AnalyzeLogFiles, cold and warm, at each worker
// count. Its subtests pin the errors of a bad or empty dump to their
// historical text, line numbers included.
func TestJobDBPassMatchesLoadDB(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		d := loadDBDataset(t, seed)
		want := d.reference(t, d.db)
		pattern, dbPath := d.shards(t), writeDB(t, d.db)
		for _, workers := range []int{1, 2, 4} {
			cfg := pipeCfg()
			cfg.Workers = workers
			res, err := core.AnalyzeLogs(bytes.NewReader(d.logs), bytes.NewReader(d.db), d.repairs, d.cpu, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderAll(t, res); got != want {
				t.Fatalf("seed %d, workers %d: AnalyzeLogs differs from Analyze over LoadDB:\n%s\nwant\n%s", seed, workers, got, want)
			}
			ing := core.IngestConfig{CacheDir: t.TempDir()}
			for _, run := range []string{"cold", "warm"} {
				res, err := d.analyzeFiles(pattern, dbPath, cfg, ing)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range res.Shards {
					if hit := s.Outcome == ingest.CacheHit; hit != (run == "warm") {
						t.Fatalf("seed %d, workers %d, %s run: shard %s outcome %v", seed, workers, run, s.Path, s.Outcome)
					}
				}
				if got := renderAll(t, res); got != want {
					t.Fatalf("seed %d, workers %d, %s AnalyzeLogFiles differs from Analyze over LoadDB:\n%s\nwant\n%s",
						seed, workers, run, got, want)
				}
			}
		}
	}

	d := loadDBDataset(t, 1)
	const (
		header = "JobID|JobName|User|Partition|ReqGPUS|Submit|Start|End|State|ExitCode|Placement|ML\n"
		good   = "5|train_x|u1|gpuA100x4|2|2023-01-01T00:00:00Z|2023-01-01T01:00:00Z|2023-01-01T02:00:00Z|FAILED|1:0|gpub001:0,1|1\n"
	)
	noJobs := d.reference(t, []byte(header))
	pattern := d.shards(t)
	for _, c := range []struct {
		name     string
		db       *string // nil: no job DB
		err      string  // "" for success
		filesErr string  // AnalyzeLogFiles' error when not err; %s is the shard path
		tables   string  // the tables a success renders
		stageIn  []byte  // the raw log, d.logs when nil
	}{
		{name: "wrong header", db: ptr("JobID|JobName|User\n" + good),
			err: `core: load job DB: slurmsim: unexpected DB header "JobID|JobName|User"`},
		{name: "11-field row", db: ptr(header + good + "\n" + "6|a|u|p|1|2023-01-01T00:00:00Z|||PENDING|0:0|\n"),
			err: "core: load job DB: slurmsim: line 4: want 12 fields, got 11"},
		{name: "time out of range", db: ptr(header + good + "7|a|u|p|1|1969-12-31T23:59:59Z|||PENDING|0:0||0\n"),
			err: `core: load job DB: slurmsim: line 3: submit: "1969-12-31T23:59:59Z" out of range [1970-01-01T00:00:01Z, 2262-04-11T23:47:16.854775807Z]`},
		{name: "0x1 placement", db: ptr(header + good + good + strings.Replace(good, "gpub001:0,1", "gpub001:0x1", 1)),
			err: `core: load job DB: slurmsim: line 4: slurmsim: bad gpu index "0x1": strconv.Atoi: parsing "0x1": invalid syntax`},
		{name: "stage I failure", db: ptr(string(d.db)), stageIn: []byte("x" + strings.Repeat("y", 4<<20) + "\n"),
			err:      "core: stage I: syslog: line 1 longer than 4194304 bytes (corrupt log?)",
			filesErr: "core: stage I: ingest: shard %s: syslog: line 1 longer than 4194304 bytes (corrupt log?)"},
		{name: "empty DB", db: ptr(""), tables: noJobs},
		{name: "header only", db: ptr(header), tables: noJobs},
		{name: "trailing blank lines", db: ptr(string(d.db) + "\n\n\n"), tables: d.reference(t, d.db)},
		{name: "nil DB", tables: noJobs},
	} {
		t.Run(c.name, func(t *testing.T) {
			logs, pat := d.logs, pattern
			if c.stageIn != nil {
				logs = c.stageIn
				pat = filepath.Join(t.TempDir(), "bad.log")
				if err := os.WriteFile(pat, logs, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var db io.Reader // nil: no job DB
			dbPath := ""
			if c.db != nil {
				db = strings.NewReader(*c.db)
				dbPath = writeDB(t, []byte(*c.db))
			}
			viaLogs, errLogs := core.AnalyzeLogs(bytes.NewReader(logs), db, d.repairs, d.cpu, pipeCfg())
			viaFiles, errFiles := d.analyzeFiles(pat, dbPath, pipeCfg(), core.IngestConfig{})
			filesErr := c.err
			if c.filesErr != "" {
				filesErr = fmt.Sprintf(c.filesErr, pat)
			}
			for _, r := range []struct {
				path, want string
				res        *core.Results
				err        error
			}{{"AnalyzeLogs", c.err, viaLogs, errLogs}, {"AnalyzeLogFiles", filesErr, viaFiles, errFiles}} {
				if r.want != "" {
					if r.err == nil || r.err.Error() != r.want {
						t.Fatalf("%s: error %v, want %q", r.path, r.err, r.want)
					}
					continue
				}
				if r.err != nil {
					t.Fatalf("%s: %v", r.path, r.err)
				}
				if got := renderAll(t, r.res); got != c.tables {
					t.Fatalf("%s: tables differ from Analyze over LoadDB:\n%s\nwant\n%s", r.path, got, c.tables)
				}
			}
		})
	}
}

func ptr(s string) *string { return &s }
