// Package healthcheck implements the SRE automation the paper describes in
// §II-B and §IV: periodic node health checks that inspect every GPU's error
// management state (device reachability, row-remap history, spare-row
// budget) and proactively pull degraded devices for replacement — "Delta
// SREs actively track row-remapping failures and replace GPUs that
// repeatedly log RRFs".
package healthcheck

import (
	"errors"
	"fmt"
	"time"

	"gpuresilience/internal/nodesim"
	"gpuresilience/internal/randx"
	"gpuresilience/internal/simclock"
)

// Config parameterizes the monitor.
type Config struct {
	// Interval between sweeps of the fleet.
	Interval time.Duration
	// Jitter spreads node checks inside the interval so the fleet is not
	// probed in lockstep.
	Jitter time.Duration
	// MaxRemapFailures pulls a device once its RRF count reaches this
	// value. Zero disables the rule.
	MaxRemapFailures int
	// MinSpareRows pulls a device when its spare-row budget drops below
	// this value. Zero disables the rule.
	MinSpareRows int
	// ReplaceFailedDevices pulls devices marked failed (e.g. fallen off
	// the bus).
	ReplaceFailedDevices bool
}

// DefaultConfig returns Delta-like monitoring: hourly sweeps, replace
// devices that fell off the bus or burned most of their remap budget.
func DefaultConfig() Config {
	return Config{
		Interval:             time.Hour,
		Jitter:               10 * time.Minute,
		MaxRemapFailures:     16,
		MinSpareRows:         8,
		ReplaceFailedDevices: true,
	}
}

func (c Config) validate() error {
	if c.Interval <= 0 {
		return errors.New("healthcheck: non-positive interval")
	}
	if c.Jitter < 0 || c.Jitter >= c.Interval {
		return errors.New("healthcheck: jitter must be in [0, interval)")
	}
	if c.MaxRemapFailures < 0 || c.MinSpareRows < 0 {
		return errors.New("healthcheck: negative thresholds")
	}
	return nil
}

// Action records one intervention the monitor took.
type Action struct {
	Time   time.Time // simulation instant of the intervention
	Node   string    // node hosting the pulled device
	GPU    int       // device index within the node
	Reason string    // which threshold tripped, for the audit log
}

// Monitor sweeps the fleet on the simulation clock.
type Monitor struct {
	cfg    Config
	engine *simclock.Engine
	rng    *randx.Stream
	nodes  []*nodesim.Node
	until  time.Time

	// dirty[i] marks nodes[i] for inspection at the next sweep (see Mark).
	dirty   []bool
	sweepFn func() // m.sweep, bound once so rescheduling does not allocate

	actions []Action
	sweeps  int
}

// New builds a monitor over the fleet. It takes ownership of nothing; the
// caller starts it with Start.
func New(cfg Config, engine *simclock.Engine, rng *randx.Stream, nodes []*nodesim.Node) (*Monitor, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if engine == nil || rng == nil {
		return nil, errors.New("healthcheck: nil engine or rng")
	}
	if len(nodes) == 0 {
		return nil, errors.New("healthcheck: empty fleet")
	}
	m := &Monitor{cfg: cfg, engine: engine, rng: rng, nodes: nodes, dirty: make([]bool, len(nodes))}
	m.sweepFn = m.sweep
	m.MarkAll()
	return m, nil
}

// Mark flags nodes[i] for inspection at the next sweep. A sweep inspects
// only the Up nodes marked since they last inspected clean, and every node
// starts marked, so the monitor's owner must Mark a node whenever one of
// its devices' failed flag, remap failures or spare rows may have changed,
// and whenever the node changes state. Marking more than needed is always
// safe; the sweep schedule and its jitter draws do not depend on marks.
func (m *Monitor) Mark(i int) { m.dirty[i] = true }

// MarkAll flags every node for inspection at the next sweep.
func (m *Monitor) MarkAll() {
	for i := range m.dirty {
		m.dirty[i] = true
	}
}

// Start schedules periodic sweeps until the given time.
func (m *Monitor) Start(until time.Time) error {
	m.until = until
	first := m.engine.Now().Add(m.cfg.Interval)
	if !first.Before(until) {
		return nil
	}
	_, err := m.engine.Schedule(first, m.sweepFn)
	return err
}

// sweep inspects every marked Up node and reschedules itself.
func (m *Monitor) sweep() {
	m.sweeps++
	for i, n := range m.nodes {
		if !n.Up() || !m.dirty[i] {
			continue // in service (the recovery path owns it), or unchanged since it inspected clean
		}
		gpu, reason, bad := m.inspect(n)
		if !bad {
			m.dirty[i] = false
			continue
		}
		if n.ForceReplace(reason) {
			m.actions = append(m.actions, Action{
				Time:   m.engine.Now(),
				Node:   n.Name(),
				GPU:    gpu,
				Reason: reason,
			})
		}
	}
	next := m.engine.Now().Add(m.cfg.Interval)
	if m.cfg.Jitter > 0 {
		next = next.Add(time.Duration(m.rng.Float64() * float64(m.cfg.Jitter)))
	}
	if next.Before(m.until) {
		// Scheduling in the future from the current event cannot fail.
		_, _ = m.engine.Schedule(next, m.sweepFn)
	}
	if afterSweep != nil {
		afterSweep(m)
	}
}

// afterSweep, when set (only by tests, through export_test.go), runs after
// every sweep of every monitor.
var afterSweep func(*Monitor)

// inspect returns the first policy violation on the node.
func (m *Monitor) inspect(n *nodesim.Node) (gpu int, reason string, bad bool) {
	for i, g := range n.GPUs() {
		switch {
		case m.cfg.ReplaceFailedDevices && g.Failed():
			return i, fmt.Sprintf("gpu %d unreachable", i), true
		case m.cfg.MaxRemapFailures > 0 && g.Memory.RemapFailures() >= m.cfg.MaxRemapFailures:
			return i, fmt.Sprintf("gpu %d logged %d row-remap failures", i, g.Memory.RemapFailures()), true
		case m.cfg.MinSpareRows > 0 && g.Memory.SpareRowsLeft() < m.cfg.MinSpareRows:
			return i, fmt.Sprintf("gpu %d down to %d spare rows", i, g.Memory.SpareRowsLeft()), true
		}
	}
	return 0, "", false
}

// Actions returns the interventions taken so far (copy).
func (m *Monitor) Actions() []Action {
	out := make([]Action, len(m.actions))
	copy(out, m.actions)
	return out
}

// Sweeps returns how many fleet sweeps ran.
func (m *Monitor) Sweeps() int { return m.sweeps }
