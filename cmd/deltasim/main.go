// Command deltasim runs the calibrated Delta simulation and writes the
// dataset the analysis tools consume: the raw system log, the sacct-style
// job database, the node repair log, and a manifest with provenance and
// content digests.
//
// Usage:
//
//	deltasim -out DIR [-seed N] [-scale F] [-nojobs] [-rate] [-workers N]
//	         [-metrics] [-metrics-json FILE] [-pprof ADDR]
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
	"gpuresilience/internal/dataset"
	"gpuresilience/internal/obs"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "deltasim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("deltasim", flag.ContinueOnError)
	var (
		out     = fs.String("out", "", "output directory (required)")
		seed    = fs.Uint64("seed", 1, "simulation seed")
		scale   = fs.Float64("scale", 0.1, "workload and fault scale (1.0 = full Delta)")
		noJobs  = fs.Bool("nojobs", false, "skip the workload (errors only)")
		rate    = fs.Bool("rate", false, "free-running rate mode instead of exact quotas")
		workers = cliflags.Workers(fs)
		obsFl   = cliflags.Obs(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	_, stopPprof, err := obsFl.StartPprof()
	if err != nil {
		return err
	}
	defer stopPprof()

	sc := calib.NewScenario(*seed, *scale)
	if *rate {
		sc = sc.RateMode(*seed)
	}
	if *noJobs {
		sc.Cluster.Workload = nil
	}
	sc.Cluster.Obs = obsFl.Registry()
	sim, err := cluster.New(sc.Cluster)
	if err != nil {
		return err
	}

	logFile, err := os.Create(filepath.Join(*out, dataset.SyslogFile))
	if err != nil {
		return err
	}
	defer logFile.Close()
	writer, err := syslog.NewWriter(logFile, syslog.DefaultWriterConfig(), *seed)
	if err != nil {
		return err
	}
	sim.SetEventSink(func(ev xid.Event) error {
		_, werr := writer.WriteEvent(ev)
		return werr
	})

	start := time.Now() //lint:allow determinism wall-time metering for the summary line
	res, err := sim.Run()
	if err != nil {
		return err
	}
	if err := writer.Flush(); err != nil {
		return err
	}
	obsFl.Registry().Gauge("sim.rawlines").Set(int64(writer.Lines()))

	jobFile, err := os.Create(filepath.Join(*out, dataset.JobsFile))
	if err != nil {
		return err
	}
	defer jobFile.Close()
	if err := slurmsim.DumpDB(jobFile, res.Jobs); err != nil {
		return err
	}

	repairFile, err := os.Create(filepath.Join(*out, dataset.RepairsFile))
	if err != nil {
		return err
	}
	defer repairFile.Close()
	if err := cluster.WriteDowntimes(repairFile, res.Downtimes); err != nil {
		return err
	}

	dsm, err := dataset.WriteManifest(*out, *seed, *scale,
		"calibrated Delta A100 reproduction dataset", *workers)
	if err != nil {
		return err
	}

	man := obsFl.Manifest("deltasim", *workers)
	if man != nil {
		man.Seed = *seed
		man.Scale = *scale
		// Reuse the dataset manifest's digests: for deltasim the run's
		// provenance is its outputs, already hashed above.
		for name, info := range dsm.Files {
			man.AddFile(name, obs.FileDigest{Bytes: info.Bytes, SHA256: info.SHA256})
		}
	}

	fmt.Fprintf(stdout, "wrote %s: %d raw log lines (%d true errors), %d jobs, %d repairs in %v\n",
		*out, writer.Lines(), len(res.Events), len(res.Jobs), len(res.Downtimes),
		time.Since(start).Round(time.Millisecond)) //lint:allow determinism wall-time metering for the summary line
	return obsFl.Emit(stdout, man)
}
