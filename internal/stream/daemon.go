package stream

import (
	"context"
	"fmt"
	"time"

	"gpuresilience/internal/obs"
)

// Daemon defaults; DaemonConfig zero fields resolve to these.
const (
	// DefaultPoll is how often tailers are polled for new lines.
	DefaultPoll = 250 * time.Millisecond
	// DefaultRefresh is the minimum interval between snapshot rebuilds.
	DefaultRefresh = time.Second
	// DefaultIdleSeal is how long ingest may sit idle before the pending
	// buffer is force-sealed: a quiet log must not hold the last horizon's
	// worth of events out of the tables forever.
	DefaultIdleSeal = 5 * time.Second
)

// DaemonConfig assembles a running service around an engine.
type DaemonConfig struct {
	// Tailers are the file sources the ingest loop polls. In-process feeds
	// push into the engine directly and need no entry here.
	Tailers []*Tailer
	// Poll, Refresh, IdleSeal resolve to the Default* constants when zero.
	Poll     time.Duration
	Refresh  time.Duration // see Poll
	IdleSeal time.Duration // see Poll
	// CheckpointPath enables periodic checkpoints when non-empty; one is
	// also written on shutdown.
	CheckpointPath string
	// CheckpointEvery is the interval between periodic checkpoints; zero
	// with a CheckpointPath means shutdown-only.
	CheckpointEvery time.Duration
	// Reg receives service gauges and request metrics; nil disables them.
	Reg *obs.Registry
	// Manifest is served at /v1/manifest and embedded in checkpoints.
	Manifest *obs.RunManifest
}

func (c DaemonConfig) withDefaults() DaemonConfig {
	if c.Poll == 0 {
		c.Poll = DefaultPoll
	}
	if c.Refresh == 0 {
		c.Refresh = DefaultRefresh
	}
	if c.IdleSeal == 0 {
		c.IdleSeal = DefaultIdleSeal
	}
	return c
}

// Daemon owns the ingest loop: poll tailers, advance the watermark, seal
// idle buffers, publish snapshots, write checkpoints. The HTTP server
// reads only what the loop publishes, so everything stateful runs on this
// one goroutine.
type Daemon struct {
	cfg    DaemonConfig
	engine *Engine
	server *Server
}

// NewDaemon wires an engine to its service loop and HTTP read path.
func NewDaemon(engine *Engine, cfg DaemonConfig) *Daemon {
	cfg = cfg.withDefaults()
	now := func() time.Time { return time.Now() } //lint:allow determinism request latency metering measures real elapsed time
	return &Daemon{
		cfg:    cfg,
		engine: engine,
		server: NewServer(cfg.Reg, cfg.Manifest, now),
	}
}

// Engine returns the daemon's engine (for in-process feeds).
func (d *Daemon) Engine() *Engine { return d.engine }

// Server returns the HTTP read path; mount Server.Handler on a listener.
func (d *Daemon) Server() *Server { return d.server }

// Run drives the ingest loop until ctx is cancelled, then finalizes: all
// pending events are sealed, a last snapshot is published, and — when
// checkpointing is configured — a final checkpoint lands on disk.
func (d *Daemon) Run(ctx context.Context) error {
	// Publish an initial snapshot so /healthz and the tables answer
	// immediately, even before the first line arrives.
	if err := d.publish(); err != nil {
		return err
	}
	ticker := time.NewTicker(d.cfg.Poll)
	defer ticker.Stop()

	lastIngest := time.Now()     //lint:allow determinism idle-seal timing is wall-clock by design
	lastPublish := lastIngest    //lint:allow determinism snapshot refresh pacing is wall-clock by design
	lastCheckpoint := lastIngest //lint:allow determinism checkpoint pacing is wall-clock by design

	for {
		select {
		case <-ctx.Done():
			return d.finalize()
		case <-ticker.C:
		}
		moved, err := d.pollSources()
		if err != nil {
			return err
		}
		sealed := d.engine.Advance()
		now := time.Now() //lint:allow determinism service pacing is wall-clock by design
		if moved > 0 || sealed > 0 {
			lastIngest = now
		} else if now.Sub(lastIngest) >= d.cfg.IdleSeal {
			// Idle: nothing new arrived for a while, so the events still
			// waiting out the horizon are as final as they will get.
			if d.engine.FlushAll() > 0 {
				lastIngest = now
			}
		}
		d.setGauges()
		if now.Sub(lastPublish) >= d.cfg.Refresh {
			if d.server.Latest() == nil || d.engine.Gen() != d.server.Latest().Gen {
				if err := d.publish(); err != nil {
					return err
				}
			}
			lastPublish = now
		}
		if d.cfg.CheckpointPath != "" && d.cfg.CheckpointEvery > 0 &&
			now.Sub(lastCheckpoint) >= d.cfg.CheckpointEvery {
			if err := d.checkpoint(); err != nil {
				return err
			}
			lastCheckpoint = now
		}
	}
}

// pollSources drains every tailer once.
func (d *Daemon) pollSources() (int, error) {
	total := 0
	for _, t := range d.cfg.Tailers {
		n, err := t.Poll(d.engine.ConsumeLine)
		total += n
		if err != nil {
			return total, fmt.Errorf("stream: tail %s: %w", t.Name(), err)
		}
	}
	return total, nil
}

// publish rebuilds the snapshot from the engine and swaps it in.
func (d *Daemon) publish() error {
	snap, err := BuildSnapshot(d.engine)
	if err != nil {
		return err
	}
	snap.BuiltAt = time.Now() //lint:allow determinism snapshot age is a wall-clock service metric
	d.server.Publish(snap)
	d.cfg.Reg.Counter("stream.snapshots").Add(1)
	return nil
}

// setGauges exports the service's health signals. Watermark lag is event
// time (newest event minus watermark); snapshot age is wall time since the
// last publish.
func (d *Daemon) setGauges() {
	if !d.cfg.Reg.Enabled() {
		return
	}
	st := d.engine.Status()
	lag := time.Duration(0)
	if !st.MaxEventTime.IsZero() && !st.Watermark.IsZero() {
		lag = st.MaxEventTime.Sub(st.Watermark)
	}
	d.cfg.Reg.Gauge("stream.ingest.lag_ms").Set(lag.Milliseconds())
	d.cfg.Reg.Gauge("stream.windows.open").Set(int64(st.OpenWindows))
	d.cfg.Reg.Gauge("stream.pending").Set(int64(st.PendingEvents))
	d.cfg.Reg.Gauge("stream.sealed").Set(int64(st.SealedEvents))
	d.cfg.Reg.Gauge("stream.quarantine.late").Set(st.Quarantine.Late)
	if snap := d.server.Latest(); snap != nil && !snap.BuiltAt.IsZero() {
		age := time.Since(snap.BuiltAt) //lint:allow determinism snapshot age is a wall-clock service metric
		d.cfg.Reg.Gauge("stream.snapshot.age_ms").Set(age.Milliseconds())
	}
}

// checkpoint writes the engine's state (plus tailer offsets and the run
// manifest) atomically to the configured path.
func (d *Daemon) checkpoint() error {
	cp := d.engine.Checkpoint()
	cp.Manifest = d.cfg.Manifest
	for _, t := range d.cfg.Tailers {
		if src := cp.source(t.Name()); src != nil {
			src.Offset = t.Offset()
		}
	}
	return SaveCheckpoint(d.cfg.CheckpointPath, cp)
}

// finalize is the shutdown path: drain sources one last time, seal
// everything, publish, checkpoint.
func (d *Daemon) finalize() error {
	if _, err := d.pollSources(); err != nil {
		return err
	}
	d.engine.FlushAll()
	d.setGauges()
	if err := d.publish(); err != nil {
		return err
	}
	if d.cfg.CheckpointPath != "" {
		return d.checkpoint()
	}
	return nil
}

// RestoreTailers positions cfg's tailers at a checkpoint's offsets, so a
// resumed daemon continues from where the previous process stopped instead
// of re-reading files from the start.
func RestoreTailers(cp *Checkpoint, tailers []*Tailer) {
	if cp == nil {
		return
	}
	for _, t := range tailers {
		if src := cp.source(t.Name()); src != nil {
			t.SetStart(src.Offset, src.Lines)
		}
	}
}
