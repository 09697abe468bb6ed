// Command gpuresilienced is the streaming analysis daemon: it tails one or
// more live system logs, runs Stage I/II online behind a watermark, and
// serves the paper's tables (I, II, III) and the Figure 2 availability
// distribution over HTTP — continuously updated as events arrive, with the
// same bytes the batch CLIs print. See docs/service.md for the API.
//
// Usage:
//
//	gpuresilienced -logs FILE [-logs FILE ...] [-jobs FILE] [-repairs FILE]
//	               [-listen ADDR] [-horizon D] [-window D] [-attr D]
//	               [-poll D] [-refresh D] [-idle-seal D]
//	               [-checkpoint FILE] [-checkpoint-every D]
//	               [-workers N]
//	               [-metrics] [-metrics-json FILE] [-pprof ADDR]
//	gpuresilienced -data DIR [same flags]
//
// The daemon runs until interrupted (SIGINT/SIGTERM); on shutdown it seals
// all pending events, publishes a final snapshot, and — when -checkpoint is
// set — writes a resumable checkpoint so the next start skips everything
// already ingested.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/cliflags"
	"gpuresilience/internal/cluster"
	"gpuresilience/internal/core"
	"gpuresilience/internal/dataset"
	"gpuresilience/internal/ingest"
	"gpuresilience/internal/obs"
	"gpuresilience/internal/parallel"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/stream"
	"gpuresilience/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gpuresilienced:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gpuresilienced", flag.ContinueOnError)
	var logs cliflags.PathList
	cliflags.Logs(fs, &logs)
	var (
		jobsPath    = fs.String("jobs", "", "sacct-style job database for the Table II/III join")
		repairsPath = fs.String("repairs", "", "node repair log for the availability analysis")
		dataDir     = fs.String("data", "", "dataset directory (verifies the manifest, uses its files)")
		listen      = fs.String("listen", "localhost:0", "HTTP listen address for the read API")
		horizon     = fs.Duration("horizon", stream.DefaultHorizon, "watermark horizon: how far event time may lag the newest event before sealing")
		window      = fs.Duration("window", 5*time.Second, "error coalescing window")
		attr        = fs.Duration("attr", 20*time.Second, "failure attribution window")
		poll        = fs.Duration("poll", stream.DefaultPoll, "log poll interval")
		refresh     = fs.Duration("refresh", stream.DefaultRefresh, "minimum interval between snapshot rebuilds")
		idleSeal    = fs.Duration("idle-seal", stream.DefaultIdleSeal, "seal all pending events after this long with no new input")
		cpPath      = fs.String("checkpoint", "", "checkpoint file: resumed from on start, written on shutdown")
		cpEvery     = fs.Duration("checkpoint-every", 0, "also write periodic checkpoints at this interval (0 = shutdown only)")
		workers     = cliflags.Workers(fs)
		obsFl       = cliflags.Obs(fs)
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
		logs = append(logs, lp)
		if m.Has(dataset.JobsFile) {
			jp, err := m.Path(*dataDir, dataset.JobsFile)
			if err != nil {
				return err
			}
			*jobsPath = jp
		}
		if m.Has(dataset.RepairsFile) {
			rp, err := m.Path(*dataDir, dataset.RepairsFile)
			if err != nil {
				return err
			}
			*repairsPath = rp
		}
	}
	if len(logs) == 0 {
		return fmt.Errorf("-logs or -data is required")
	}
	// Globs and directories expand once at startup; literal paths survive
	// unexpanded so a not-yet-created file can still be tailed.
	expanded, err := ingest.Expand(logs)
	if err != nil {
		return err
	}
	logs = expanded
	_, stopPprof, err := obsFl.StartPprof()
	if err != nil {
		return err
	}
	defer stopPprof()

	// A service always carries a registry: /v1/metrics is part of the API,
	// not an opt-in like the batch CLIs' -metrics flag. The flag still
	// controls whether a metrics section is printed on exit.
	reg := obsFl.Registry()
	if reg == nil {
		reg = obs.New()
	}
	man := obs.NewRunManifest("gpuresilienced")
	man.Workers = parallel.Resolve(*workers)

	pipeCfg := core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes)
	pipeCfg.CoalesceWindow = *window
	pipeCfg.AttributionWindow = *attr
	pipeCfg.Workers = *workers
	pipeCfg.Obs = reg
	man.Pipeline = pipeCfg

	cfg := stream.Config{Pipeline: pipeCfg, Horizon: *horizon}
	if *jobsPath != "" {
		jf, err := os.Open(*jobsPath)
		if err != nil {
			return err
		}
		hashed := obs.NewHashingReader(jf)
		cfg.Jobs, err = slurmsim.LoadDB(hashed)
		jf.Close()
		if err != nil {
			return err
		}
		man.AddFile(*jobsPath, hashed.Digest())
	}
	if *repairsPath != "" {
		rf, err := os.Open(*repairsPath)
		if err != nil {
			return err
		}
		hashed := obs.NewHashingReader(rf)
		cfg.Downtimes, err = cluster.ReadDowntimes(hashed)
		rf.Close()
		if err != nil {
			return err
		}
		man.AddFile(*repairsPath, hashed.Digest())
	}
	cfg.CPU = workload.CPURecord{}

	// Resume from the checkpoint when one exists; a missing file is a cold
	// start, any other load error is fatal (a corrupt checkpoint should not
	// be silently discarded).
	var cp *stream.Checkpoint
	if *cpPath != "" {
		cp, err = stream.LoadCheckpoint(*cpPath)
		if errors.Is(err, os.ErrNotExist) {
			cp, err = nil, nil
		}
		if err != nil {
			return err
		}
	}
	eng, err := stream.Resume(cfg, cp)
	if err != nil {
		return err
	}
	tailers := make([]*stream.Tailer, len(logs))
	for i, path := range logs {
		tailers[i] = stream.NewTailer(path)
		defer tailers[i].Close()
	}
	stream.RestoreTailers(cp, tailers)
	if cp != nil {
		fmt.Fprintf(stdout, "gpuresilienced: resumed from %s (%d events sealed, watermark %s)\n",
			*cpPath, cp.SealedRaw, cp.Watermark.Format(time.RFC3339))
	}

	daemon := stream.NewDaemon(eng, stream.DaemonConfig{
		Tailers:         tailers,
		Poll:            *poll,
		Refresh:         *refresh,
		IdleSeal:        *idleSeal,
		CheckpointPath:  *cpPath,
		CheckpointEvery: *cpEvery,
		Reg:             reg,
		Manifest:        man,
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: daemon.Server().Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	// The smoke tests (CI and examples) scrape this line for the bound
	// address, which is dynamic under -listen localhost:0.
	fmt.Fprintf(stdout, "gpuresilienced: listening on http://%s\n", ln.Addr())

	runErr := daemon.Run(ctx)
	if err := srv.Close(); err != nil {
		return err
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if runErr != nil {
		return runErr
	}
	return obsFl.Emit(stdout, man)
}
