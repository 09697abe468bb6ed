// Command jobimpact runs the job-impact analysis (Stage III, §V): it joins
// raw system logs with the Slurm job database and prints Table II (per-XID
// job failure probabilities) and Table III (workload statistics). -logs is
// repeatable and accepts globs and directories; -cache-dir reuses parsed
// shards across runs (see docs/ingest.md).
//
// Usage:
//
//	jobimpact -logs PATH [-logs PATH ...] -jobs FILE [-attr D] [-window D]
//	          [-workers N] [-cache-dir DIR] [-no-cache]
//	          [-lenient] [-max-bad-lines N] [-max-bad-frac F]
//	          [-metrics] [-metrics-json FILE] [-pprof ADDR]
//	jobimpact -data DIR [same flags]
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
	"gpuresilience/internal/core"
	"gpuresilience/internal/dataset"
	"gpuresilience/internal/obs"
	"gpuresilience/internal/report"
	"gpuresilience/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "jobimpact:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("jobimpact", flag.ContinueOnError)
	var logs cliflags.PathList
	cliflags.Logs(fs, &logs)
	var (
		jobs    = fs.String("jobs", "", "sacct-style job database")
		dataDir = fs.String("data", "", "dataset directory (verifies the manifest, uses its files)")
		attr    = fs.Duration("attr", 20*time.Second, "failure attribution window")
		window  = fs.Duration("window", 5*time.Second, "error coalescing window")
		workers = cliflags.Workers(fs)
		ingFl   = cliflags.Ingest(fs)
		lenient = cliflags.Lenient(fs)
		obsFl   = cliflags.Obs(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir != "" {
		m, err := dataset.Verify(*dataDir)
		if err != nil {
			return err
		}
		lp, err := m.Path(*dataDir, dataset.SyslogFile)
		if err != nil {
			return err
		}
		jp, err := m.Path(*dataDir, dataset.JobsFile)
		if err != nil {
			return err
		}
		logs, *jobs = append(logs, lp), jp
	}
	if len(logs) == 0 || *jobs == "" {
		return fmt.Errorf("-logs and -jobs (or -data) are required")
	}
	_, stopPprof, err := obsFl.StartPprof()
	if err != nil {
		return err
	}
	defer stopPprof()
	jf, err := os.Open(*jobs)
	if err != nil {
		return err
	}
	defer jf.Close()

	cfg := core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes)
	cfg.AttributionWindow = *attr
	cfg.CoalesceWindow = *window
	cfg.Workers = *workers
	lenient.Apply(&cfg)
	cfg.Obs = obsFl.Registry()

	man := obsFl.Manifest("jobimpact", *workers)
	if man != nil {
		man.Pipeline = cfg
	}
	var jobSrc io.Reader = jf
	var jobHash *obs.HashingReader
	if man != nil {
		jobHash = obs.NewHashingReader(jf)
		jobSrc = jobHash
	}

	res, err := core.AnalyzeLogFiles(logs, jobSrc, nil, workload.CPURecord{}, cfg, ingFl.Config())
	if err != nil {
		return err
	}
	cliflags.AddShardFiles(man, res.Shards)
	if man != nil {
		man.AddFile(filepath.Base(*jobs), jobHash.Digest())
	}
	if res.Ingestion != nil {
		if err := report.WriteIngestion(stdout, res); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if err := report.WriteJobImpact(stdout, res); err != nil {
		return err
	}
	return obsFl.Emit(stdout, man)
}
