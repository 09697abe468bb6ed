// Command xidstat runs Stages I-II of the pipeline over raw system logs
// and prints Table I (GPU resilience statistics). -logs is repeatable and
// accepts globs and directories; multiple files are sharded across workers
// and their events concatenated in plan order, and -cache-dir reuses
// parsed shards across runs (see docs/ingest.md).
//
// Usage:
//
//	xidstat -logs PATH [-logs PATH ...] [-window D] [-workers N]
//	        [-cache-dir DIR] [-no-cache]
//	        [-lenient] [-max-bad-lines N] [-max-bad-frac F]
//	        [-metrics] [-metrics-json FILE] [-pprof ADDR]
//	xidstat -data DIR  [same flags]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/cliflags"
	"gpuresilience/internal/core"
	"gpuresilience/internal/dataset"
	"gpuresilience/internal/report"
	"gpuresilience/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xidstat:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("xidstat", flag.ContinueOnError)
	var logs cliflags.PathList
	cliflags.Logs(fs, &logs)
	var (
		dataDir = fs.String("data", "", "dataset directory (verifies the manifest, uses its syslog)")
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
		path, err := m.Path(*dataDir, dataset.SyslogFile)
		if err != nil {
			return err
		}
		logs = append(logs, path)
	}
	if len(logs) == 0 {
		return fmt.Errorf("-logs or -data is required")
	}
	_, stopPprof, err := obsFl.StartPprof()
	if err != nil {
		return err
	}
	defer stopPprof()

	cfg := core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes)
	cfg.CoalesceWindow = *window
	cfg.Workers = *workers
	lenient.Apply(&cfg)
	cfg.Obs = obsFl.Registry()

	man := obsFl.Manifest("xidstat", *workers)
	if man != nil {
		man.Pipeline = cfg
	}

	res, err := core.AnalyzeLogFiles(logs, nil, nil, workload.CPURecord{}, cfg, ingFl.Config())
	if err != nil {
		return err
	}
	cliflags.AddShardFiles(man, res.Shards)
	if err := report.WriteScanSummary(stdout, res); err != nil {
		return err
	}
	if res.Ingestion != nil {
		if err := report.WriteIngestion(stdout, res); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	if err := report.WriteTableI(stdout, res); err != nil {
		return err
	}
	return obsFl.Emit(stdout, man)
}
