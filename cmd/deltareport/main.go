// Command deltareport runs the full reproduction — simulate Delta, emit raw
// logs, extract, coalesce, characterize — and prints every table and figure
// of the paper, the headline findings, and optionally the paper-vs-measured
// comparison, CSV exports, extension analyses, and the error trend.
//
// With -logs the simulation is skipped and the same report is derived from
// existing raw logs (repeatable; globs and directories shard across
// workers, -cache-dir reuses parsed shards — see docs/ingest.md),
// optionally joined with -jobs and -repairs files.
//
// Usage:
//
//	deltareport [-seed N] [-scale F] [-window D] [-attr D] [-workers N]
//	            [-compare] [-quiet] [-ext] [-trend] [-csv DIR] [-hopper] [-rate]
//	            [-lenient] [-max-bad-lines N] [-max-bad-frac F]
//	            [-metrics] [-metrics-json FILE] [-pprof ADDR]
//	deltareport -logs PATH [-logs PATH ...] [-jobs FILE] [-repairs FILE]
//	            [-cache-dir DIR] [-no-cache] [same analysis flags]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/cliflags"
	"gpuresilience/internal/cluster"
	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/core"
	"gpuresilience/internal/obs"
	"gpuresilience/internal/report"
	"gpuresilience/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "deltareport:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("deltareport", flag.ContinueOnError)
	var logs cliflags.PathList
	cliflags.Logs(fs, &logs)
	var (
		jobsPath    = fs.String("jobs", "", "sacct-style job database to join in -logs mode")
		repairsPath = fs.String("repairs", "", "node repair log for the availability analysis in -logs mode")

		seed    = fs.Uint64("seed", 1, "simulation seed")
		scale   = fs.Float64("scale", 1.0, "workload and fault scale (1.0 = full Delta)")
		window  = fs.Duration("window", 5*time.Second, "error coalescing window")
		attr    = fs.Duration("attr", 20*time.Second, "job-failure attribution window")
		compare = fs.Bool("compare", false, "also print paper-vs-measured comparison")
		quiet   = fs.Bool("quiet", false, "print only the comparison")
		ext     = fs.Bool("ext", false, "also print extension analyses (survival, burstiness, checkpoint what-if)")
		csvDir  = fs.String("csv", "", "also write table1.csv..table3.csv and figure2.csv to this directory")
		trend   = fs.Bool("trend", false, "also print the 30-day error trend")
		hopper  = fs.Bool("hopper", false, "run the Grace Hopper projection scenario instead of the A100 calibration")
		rate    = fs.Bool("rate", false, "free-running rate mode instead of exact quotas")
		workers = cliflags.Workers(fs)
		ingFl   = cliflags.Ingest(fs)
		lenient = cliflags.Lenient(fs)
		obsFl   = cliflags.Obs(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, stopPprof, err := obsFl.StartPprof()
	if err != nil {
		return err
	}
	defer stopPprof()
	if len(logs) > 0 {
		if *ext || *trend || *hopper || *rate {
			return fmt.Errorf("-logs mode analyzes existing files: -ext, -trend, -hopper, and -rate need the simulator")
		}
		return runLogs(logs, *jobsPath, *repairsPath, *window, *attr, *workers,
			*compare, *quiet, *csvDir, ingFl, lenient, obsFl, stdout)
	}

	sc := calib.NewScenario(*seed, *scale)
	if *hopper {
		sc = calib.NewHopperScenario(*seed, *scale)
		fmt.Fprintln(stderr, "running the Grace Hopper PROJECTION (not paper data; see internal/calib/hopper.go)")
	}
	if *rate {
		sc = sc.RateMode(*seed)
	}
	pcfg := core.DefaultPipelineConfig(sc.Cluster.PreOp, sc.Cluster.Op, sc.Cluster.Nodes4+sc.Cluster.Nodes8)
	pcfg.CoalesceWindow = *window
	pcfg.AttributionWindow = *attr
	pcfg.Workers = *workers
	lenient.Apply(&pcfg)
	pcfg.Obs = obsFl.Registry()

	man := obsFl.Manifest("deltareport", *workers)
	if man != nil {
		man.Seed = *seed
		man.Scale = *scale
		man.Pipeline = pcfg
	}

	start := time.Now() //lint:allow determinism wall-time metering for the stderr progress line
	out, err := core.EndToEnd(core.EndToEndConfig{Cluster: sc.Cluster, Pipeline: pcfg})
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "simulated %d raw log lines, %d jobs in %v\n",
		out.RawLogLines, len(out.Truth.Jobs), time.Since(start).Round(time.Millisecond)) //lint:allow determinism wall-time metering for the stderr progress line

	if !*quiet {
		if out.Results.Ingestion != nil {
			if err := report.WriteIngestion(stdout, out.Results); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		}
		if err := report.WriteAll(stdout, out.Results); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		if err := report.WriteFindings(stdout, out.Results); err != nil {
			return err
		}
	}
	if *compare || *quiet {
		fmt.Fprintln(stdout, "\n=== Paper vs measured ===")
		fmt.Fprintln(stdout)
		if err := report.WriteComparison(stdout, out.Results); err != nil {
			return err
		}
	}
	if *csvDir != "" {
		if err := writeCSVs(*csvDir, out.Results); err != nil {
			return err
		}
	}
	if *ext {
		events, err := coalesce.Events(out.Truth.Events, *window)
		if err != nil {
			return err
		}
		nodes := sc.Cluster.Nodes4 + sc.Cluster.Nodes8
		fleet := make([]string, nodes)
		for i := range fleet {
			fleet[i] = fmt.Sprintf("gpub%03d", i+1)
		}
		fmt.Fprintln(stdout)
		if err := report.WriteExtensions(stdout, report.ExtensionsInput{
			Events:           events,
			Jobs:             out.Truth.Jobs,
			Period:           sc.Cluster.Op,
			FleetSize:        nodes,
			PerNodeMTBEHours: out.Results.OpSummary.PerNodeMTBE,
			DownHoursByNode:  report.DownHoursByNode(out.Truth.Downtimes, sc.Cluster.Op.Contains),
			Fleet:            fleet,
		}); err != nil {
			return err
		}
	}
	if *trend {
		full := sc.Cluster.PreOp
		full.End = sc.Cluster.Op.End
		fmt.Fprintln(stdout)
		if err := report.WriteTrend(stdout, out.Truth.Events, full); err != nil {
			return err
		}
	}
	return obsFl.Emit(stdout, man)
}

// runLogs is the -logs analysis mode: the same report sections as the
// simulated run, derived from existing raw log files through the sharded
// multi-file front end instead of the simulator.
func runLogs(logs []string, jobsPath, repairsPath string, window, attr time.Duration,
	workers int, compare, quiet bool, csvDir string,
	ingFl *cliflags.IngestFlags, lenient *cliflags.LenientFlags, obsFl *cliflags.ObsFlags,
	stdout io.Writer) error {
	cfg := core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes)
	cfg.CoalesceWindow = window
	cfg.AttributionWindow = attr
	cfg.Workers = workers
	lenient.Apply(&cfg)
	cfg.Obs = obsFl.Registry()

	man := obsFl.Manifest("deltareport", workers)
	if man != nil {
		man.Pipeline = cfg
	}
	var jobSrc io.Reader
	if jobsPath != "" {
		jf, err := os.Open(jobsPath)
		if err != nil {
			return err
		}
		defer jf.Close()
		jobSrc = jf
		if man != nil {
			hr := obs.NewHashingReader(jf)
			jobSrc = hr
			defer func() { man.AddFile(filepath.Base(jobsPath), hr.Digest()) }()
		}
	}
	var repairs []time.Duration
	if repairsPath != "" {
		rf, err := os.Open(repairsPath)
		if err != nil {
			return err
		}
		defer rf.Close()
		var src io.Reader = rf
		var hr *obs.HashingReader
		if man != nil {
			hr = obs.NewHashingReader(rf)
			src = hr
		}
		downtimes, err := cluster.ReadDowntimes(src)
		if err != nil {
			return err
		}
		if hr != nil {
			man.AddFile(filepath.Base(repairsPath), hr.Digest())
		}
		repairs = cluster.Durations(downtimes)
	}

	res, err := core.AnalyzeLogFiles(logs, jobSrc, repairs, workload.CPURecord{}, cfg, ingFl.Config())
	if err != nil {
		return err
	}
	cliflags.AddShardFiles(man, res.Shards)
	if !quiet {
		if res.Ingestion != nil {
			if err := report.WriteIngestion(stdout, res); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		}
		if err := report.WriteAll(stdout, res); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		if err := report.WriteFindings(stdout, res); err != nil {
			return err
		}
	}
	if compare || quiet {
		fmt.Fprintln(stdout, "\n=== Paper vs measured ===")
		fmt.Fprintln(stdout)
		if err := report.WriteComparison(stdout, res); err != nil {
			return err
		}
	}
	if csvDir != "" {
		if err := writeCSVs(csvDir, res); err != nil {
			return err
		}
	}
	return obsFl.Emit(stdout, man)
}

// writeCSVs dumps machine-readable versions of every table and figure.
func writeCSVs(dir string, res *core.Results) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := []struct {
		name string
		fn   func(io.Writer, *core.Results) error
	}{
		{"table1.csv", report.WriteTableICSV},
		{"table2.csv", report.WriteTableIICSV},
		{"table3.csv", report.WriteTableIIICSV},
		{"figure2.csv", report.WriteFigure2CSV},
	}
	for _, f := range files {
		out, err := os.Create(filepath.Join(dir, f.name))
		if err != nil {
			return err
		}
		if err := f.fn(out, res); err != nil {
			_ = out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
	}
	return nil
}
