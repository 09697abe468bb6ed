// Command availability runs the §V-C analysis: it reads the node repair log
// (and optionally the raw system log, for the conservative MTTF estimate)
// and prints the Figure 2 unavailability distribution, MTTR, MTTF, and
// availability.
//
// Usage:
//
//	availability -repairs FILE [-logs PATH ...] [-workers N]
//	             [-cache-dir DIR] [-no-cache]
//	             [-lenient] [-max-bad-lines N] [-max-bad-frac F]
//	             [-metrics] [-metrics-json FILE] [-pprof ADDR]
//	availability -data DIR [same flags]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gpuresilience/internal/avail"
	"gpuresilience/internal/calib"
	"gpuresilience/internal/cliflags"
	"gpuresilience/internal/cluster"
	"gpuresilience/internal/core"
	"gpuresilience/internal/dataset"
	"gpuresilience/internal/obs"
	"gpuresilience/internal/report"
	"gpuresilience/internal/stats"
	"gpuresilience/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "availability:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("availability", flag.ContinueOnError)
	var logs cliflags.PathList
	cliflags.Logs(fs, &logs)
	var (
		repairsPath = fs.String("repairs", "", "node repair log")
		dataDir     = fs.String("data", "", "dataset directory (verifies the manifest, uses its files)")
		workers     = cliflags.Workers(fs)
		ingFl       = cliflags.Ingest(fs)
		lenient     = cliflags.Lenient(fs)
		obsFl       = cliflags.Obs(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, stopPprof, err := obsFl.StartPprof()
	if err != nil {
		return err
	}
	defer stopPprof()
	if *dataDir != "" {
		m, err := dataset.Verify(*dataDir)
		if err != nil {
			return err
		}
		rp, err := m.Path(*dataDir, dataset.RepairsFile)
		if err != nil {
			return err
		}
		*repairsPath = rp
		if m.Has(dataset.SyslogFile) {
			lp, err := m.Path(*dataDir, dataset.SyslogFile)
			if err != nil {
				return err
			}
			logs = append(logs, lp)
		}
	}
	if *repairsPath == "" {
		return fmt.Errorf("-repairs or -data is required")
	}
	man := obsFl.Manifest("availability", *workers)
	rf, err := os.Open(*repairsPath)
	if err != nil {
		return err
	}
	defer rf.Close()
	var repairSrc io.Reader = rf
	var repairHash *obs.HashingReader
	if man != nil {
		repairHash = obs.NewHashingReader(rf)
		repairSrc = repairHash
	}
	downtimes, err := cluster.ReadDowntimes(repairSrc)
	if err != nil {
		return err
	}
	if repairHash != nil {
		man.AddFile(filepath.Base(*repairsPath), repairHash.Digest())
	}

	errorCount := 0
	if len(logs) > 0 {
		cfg := core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes)
		cfg.Workers = *workers
		lenient.Apply(&cfg)
		cfg.Obs = obsFl.Registry()
		if man != nil {
			man.Pipeline = cfg
		}
		res, err := core.AnalyzeLogFiles(logs, nil, nil, workload.CPURecord{}, cfg, ingFl.Config())
		if err != nil {
			return err
		}
		cliflags.AddShardFiles(man, res.Shards)
		errorCount = res.PreSummary.TotalExclOutliers + res.OpSummary.TotalExclOutliers
	}

	full := stats.Period{Name: "characterization", Start: calib.PreOp().Start, End: calib.Op().End}
	sp := obsFl.Registry().StartSpan("stage3.availability")
	sp.AddIn(int64(len(downtimes)))
	a, err := avail.Analyze(cluster.Durations(downtimes), avail.DefaultConfig(full, calib.Nodes, errorCount))
	sp.End()
	if err != nil {
		return err
	}
	// The rendering is shared with the streaming daemon's availability
	// endpoint (report.WriteAvailability), so the two stay byte-identical.
	downByNode := report.DownHoursByNode(downtimes, nil)
	if err := report.WriteAvailability(stdout, a, downByNode, full, errorCount > 0); err != nil {
		return err
	}
	return obsFl.Emit(stdout, man)
}
