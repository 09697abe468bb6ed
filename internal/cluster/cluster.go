// Package cluster assembles the full Delta simulation: 106 A100 nodes
// (100 4-way, 6 8-way) with their GPU component models, the Slurm-like
// scheduler with the calibrated workload, the per-kind fault processes, and
// the error-to-job impact mechanics the paper describes:
//
//   - MMU errors kill the job on the affected GPU unless masked at the
//     application level (§V-B reason 2).
//   - GSP errors crash every job on the node and force a node reboot
//     (finding iii: 100% job failure).
//   - PMU SPI failures propagate to MMU errors moments later (finding iv).
//   - NVLink faults only kill jobs when the link is actively carrying the
//     job's traffic and CRC-and-replay fails; idle-link faults are logged
//     but harmless (§V-B reason 1).
//   - Uncorrectable memory faults run the A100 remap/containment cascade;
//     containment terminates the affected process, uncontained errors force
//     recovery.
//
// The simulation emits the raw error-event stream (which the syslog package
// turns into duplicated log lines), the sacct-style job records, and the
// node downtime ledgers — the three inputs of the analysis pipeline.
package cluster

import (
	"errors"
	"fmt"
	"time"

	"gpuresilience/internal/faults"
	"gpuresilience/internal/gpusim"
	"gpuresilience/internal/healthcheck"
	"gpuresilience/internal/nodesim"
	"gpuresilience/internal/obs"
	"gpuresilience/internal/randx"
	"gpuresilience/internal/simclock"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/stats"
	"gpuresilience/internal/workload"
	"gpuresilience/internal/xid"
)

// ImpactRule controls how one fault kind touches jobs and node lifecycle.
type ImpactRule struct {
	// KillProb is the probability the job on the affected GPU is killed
	// when the episode first reaches it. A job that survives the decision is
	// immune for the rest of the episode (the masking is sticky, e.g. an
	// application-level handler keeps absorbing repeats).
	KillProb float64
	// KillProbML, when positive, overrides KillProb for ML-labeled jobs.
	// §V-B: modern ML frameworks catch the exceptions MMU errors raise and
	// skip the faulty iteration, so ML jobs mask such errors more often
	// (at the cost of degraded model quality).
	KillProbML float64
	// KillNode kills every job on the node instead of just the affected
	// GPU's job (GSP crashes, bus-off).
	KillNode bool
	// ServiceProb is the probability the episode triggers a node
	// drain-reboot cycle (evaluated once, at the first error).
	ServiceProb float64
}

// killProbFor returns the kill probability applicable to a job.
func (r ImpactRule) killProbFor(ml bool) float64 {
	if ml && r.KillProbML > 0 {
		return r.KillProbML
	}
	return r.KillProb
}

// FaultyGPUScenario reproduces the pre-operational defective device: broken
// row remapping (the 15 RRFs), failing error containment, and finally the
// 17-day uncontained burst, after which SREs replace the device.
type FaultyGPUScenario struct {
	Node int // node index
	GPU  int // device index on the node
	// UncorrectableRoots are injected between RootsStart and BurstStart.
	UncorrectableRoots int
	RootsStart         time.Time // see UncorrectableRoots
	// Memory overrides the device's cascade probabilities (broken remap /
	// containment).
	Memory gpusim.MemoryConfig
	// Burst parameters: BurstCount repeated uncontained errors over
	// BurstDuration starting at BurstStart, then device replacement.
	BurstStart    time.Time
	BurstDuration time.Duration // see BurstStart
	BurstCount    int           // see BurstStart
}

// Config assembles a simulation.
type Config struct {
	Seed uint64 // master PRNG seed; everything derives from it

	Nodes4 int // 4-way A100 nodes (Delta: 100)
	Nodes8 int // 8-way A100 nodes (Delta: 6)

	// PreOp and Op are the simulated study periods, mirroring the
	// pipeline's analysis windows.
	PreOp stats.Period
	Op    stats.Period // see PreOp

	// GPUPreOp/GPUOp carry the device-model parameters per period (memory
	// cascade probabilities differ between periods in the field data).
	GPUPreOp gpusim.Config
	GPUOp    gpusim.Config // see GPUPreOp

	Node  nodesim.Config  // drain/reboot/swap downtime model
	Sched slurmsim.Config // synthetic Slurm scheduler settings

	// PreOpFaults and OpFaults plan the per-period background fault
	// processes (rates, spatial placement, burstiness).
	PreOpFaults []faults.ProcessSpec
	OpFaults    []faults.ProcessSpec // see PreOpFaults
	// ChronicNodes is the size of the error-prone node set.
	ChronicNodes int

	// Inject schedules explicitly-placed episodes on top of the planned
	// fault processes — the hook scenario compilation uses for timed XID
	// bursts, GSP storms, and NVLink flaps. Each episode's times must be
	// ascending and fall within [PreOp.Start, Op.End]; Node indexes the
	// fleet; GPU -1 lets the episode pick a device (and is mandatory for
	// NVLink, where the fabric chooses the link endpoints). Injected
	// episodes run through the same impact rules as planned ones.
	Inject []faults.Episode

	// Rules maps each fault kind to its node/job impact behavior;
	// DefaultImpactRules covers every kind.
	Rules map[faults.Kind]ImpactRule

	// PMUPropagateProb is the probability a PMU SPI failure propagates to
	// an MMU error PMUPropagateDelay later on the same device.
	PMUPropagateProb  float64
	PMUPropagateDelay time.Duration // see PMUPropagateProb

	// GSPTimeoutProb is the probability a non-leading storm error logs as
	// XID 119 rather than 120 (the first error of a storm is always 119).
	GSPTimeoutProb float64

	// NVLinkActiveBias is the probability an NVLink episode pins a link
	// that is actively carrying job traffic at episode start. CRC errors
	// are predominantly triggered by traffic over the link, so faults skew
	// toward busy links.
	NVLinkActiveBias float64

	// KillLagMean is the mean delay (exponential) between a GPU error and
	// the Slurm-recorded end of the job it kills — the crash-to-accounting
	// lag that motivates the study's 20-second attribution window. Zero
	// kills at the error instant.
	KillLagMean time.Duration

	// SoftwareXIDProb is the probability a naturally-failing job emits a
	// user-triggered software XID (13, occasionally 43) on one of its GPUs
	// as it dies. These are the high-volume codes the study deliberately
	// EXCLUDES from resilience statistics (§II-B); generating them
	// exercises that exclusion end to end.
	SoftwareXIDProb float64

	// Workload generates the operational-period job population; nil runs a
	// job-free simulation (error statistics only).
	Workload *workload.Config

	// FaultyGPU layers the single chronically-faulty device scenario
	// (the paper's 38,900-error GPU) on the simulation; nil disables it.
	FaultyGPU *FaultyGPUScenario

	// HealthCheck enables the SRE health-check monitor that proactively
	// pulls degraded devices (§II-B); nil disables it.
	HealthCheck *healthcheck.Config

	// Obs receives the simulator's span and counters (sim.run wall time,
	// events emitted, engine steps, jobs, downtimes) when non-nil. Nil — the
	// default — disables instrumentation at zero cost.
	Obs *obs.Registry
}

func (c Config) validate() error {
	if c.Nodes4 < 0 || c.Nodes8 < 0 || c.Nodes4+c.Nodes8 == 0 {
		return errors.New("cluster: need at least one node")
	}
	if err := c.PreOp.Validate(); err != nil {
		return err
	}
	if err := c.Op.Validate(); err != nil {
		return err
	}
	if !c.PreOp.End.Equal(c.Op.Start) {
		return errors.New("cluster: operational period must start when pre-operational ends")
	}
	for _, p := range []float64{c.PMUPropagateProb, c.GSPTimeoutProb, c.NVLinkActiveBias, c.SoftwareXIDProb} {
		if p < 0 || p > 1 {
			return errors.New("cluster: probability out of [0,1]")
		}
	}
	for k, r := range c.Rules {
		if r.KillProb < 0 || r.KillProb > 1 || r.ServiceProb < 0 || r.ServiceProb > 1 ||
			r.KillProbML < 0 || r.KillProbML > 1 {
			return fmt.Errorf("cluster: rule for %v out of range", k)
		}
	}
	return nil
}

// NodeDowntime tags a downtime interval with its node.
type NodeDowntime struct {
	Node string // fleet node name, e.g. "node-017"
	nodesim.Downtime
}

// Result is everything a simulation produces.
type Result struct {
	// Events is the ground-truth error stream (coalesced granularity; the
	// syslog emitter adds the duplicate raw lines).
	Events []xid.Event
	// Jobs are the terminal job records (the sacct database contents).
	Jobs []*slurmsim.Job
	// Downtimes are the node unavailability intervals.
	Downtimes []NodeDowntime
	// Fabric aggregates NVLink fabric counters across nodes.
	Fabric gpusim.FabricStats
	// CPU is the CPU-partition job summary.
	CPU workload.CPURecord
	// ServiceEvents counts drain-reboot cycles started.
	ServiceEvents int
	// HealthActions are the proactive device replacements the health-check
	// monitor performed (nil when the monitor is disabled).
	HealthActions []healthcheck.Action
	// HealthSweeps counts monitor sweeps.
	HealthSweeps int
}

// Cluster is a runnable simulation.
type Cluster struct {
	cfg    Config
	engine *simclock.Engine
	rng    *randx.Stream
	sched  *slurmsim.Scheduler
	nodes  []*nodesim.Node

	// monitor is the health-check monitor while Run runs (nil when
	// disabled). It inspects only marked nodes, so every event that may
	// change a device's health or a node's state marks the node (mark).
	monitor *healthcheck.Monitor

	events   []xid.Event
	services int

	// evCount observes every emitted error event; nil (the no-op counter)
	// when cfg.Obs is nil, so emit pays only a nil-receiver check.
	evCount *obs.Counter

	// onEvent, if set, observes every emitted error event (used to stream
	// raw syslog lines during the run).
	onEvent func(xid.Event) error
	sinkErr error
}

// New builds a simulation from cfg.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:     cfg,
		engine:  simclock.NewEngine(cfg.PreOp.Start),
		rng:     randx.Derive(cfg.Seed, "cluster"),
		evCount: cfg.Obs.Counter("sim.events"),
	}
	sched, err := slurmsim.NewScheduler(cfg.Sched, c.engine)
	if err != nil {
		return nil, err
	}
	c.sched = sched
	if cfg.SoftwareXIDProb > 0 {
		swRNG := c.rng.Derive("software-xid")
		c.sched.OnTerminal = func(j *slurmsim.Job) {
			if j.State != slurmsim.StateFailed || !swRNG.Bool(cfg.SoftwareXIDProb) {
				return
			}
			// The dying application raises a graphics-engine exception on
			// one of its GPUs, on its first node in name order, moments
			// before Slurm records the failure.
			for _, e := range j.Place {
				if len(e.GPUs) == 0 {
					continue
				}
				code := xid.GPUSoftware
				if swRNG.Bool(0.1) {
					code = xid.ResetChannel
				}
				c.emit(xid.Event{
					Time: j.End, Node: e.Node, GPU: e.GPUs[swRNG.Intn(len(e.GPUs))],
					Code: code, Detail: "graphics engine exception raised by user process",
				})
				break
			}
		}
	}

	total := cfg.Nodes4 + cfg.Nodes8
	c.nodes = make([]*nodesim.Node, 0, total)
	for i := 0; i < total; i++ {
		name := fmt.Sprintf("gpub%03d", i+1)
		gpus := 4
		if i >= cfg.Nodes4 {
			gpus = 8
		}
		n, err := nodesim.New(name, gpus, cfg.GPUPreOp, cfg.Node, c.engine,
			c.rng.Derive("node/"+name))
		if err != nil {
			return nil, err
		}
		n.OnStateChange = func(n *nodesim.Node, _, to nodesim.State) { c.nodeStateChanged(i, n, to) }
		c.nodes = append(c.nodes, n)
		if err := c.sched.AddHost(name, gpus); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// SetEventSink registers an observer for every emitted error event, called
// in event-time order during Run (e.g. a syslog writer).
func (c *Cluster) SetEventSink(fn func(xid.Event) error) { c.onEvent = fn }

// Engine exposes the simulation clock (read-only use).
func (c *Cluster) Engine() *simclock.Engine { return c.engine }

// nodeStateChanged mirrors the lifecycle of node i into scheduler host
// state and marks the node for the health check.
func (c *Cluster) nodeStateChanged(i int, n *nodesim.Node, to nodesim.State) {
	c.mark(i)
	switch to {
	case nodesim.StateDraining:
		c.sched.SetSchedulable(n.Name(), false)
	case nodesim.StateRebooting, nodesim.StateFailed:
		c.sched.FailNode(n.Name())
	case nodesim.StateUp:
		c.sched.RestoreNode(n.Name())
	}
}

// mark flags node i for the health check's next sweep.
func (c *Cluster) mark(i int) {
	if c.monitor != nil {
		c.monitor.Mark(i)
	}
}

func (c *Cluster) emit(ev xid.Event) {
	c.evCount.Add(1)
	c.events = append(c.events, ev)
	if c.onEvent != nil && c.sinkErr == nil {
		c.sinkErr = c.onEvent(ev)
	}
}

// rule returns the impact rule for a kind (zero rule when absent).
func (c *Cluster) rule(k faults.Kind) ImpactRule { return c.cfg.Rules[k] }

// Run executes the simulation over both periods and returns the results.
func (c *Cluster) Run() (*Result, error) {
	// The sim.run span covers the gpusim/nodesim event loops: the simclock
	// engine drains every scheduled fault, workload, and lifecycle event
	// between here and the end of the operational period.
	span := c.cfg.Obs.StartSpan("sim.run")
	defer span.End()
	if c.cfg.HealthCheck != nil {
		monitor, err := healthcheck.New(*c.cfg.HealthCheck, c.engine,
			c.rng.Derive("healthcheck"), c.nodes)
		if err != nil {
			return nil, err
		}
		c.monitor = monitor
		if err := monitor.Start(c.cfg.Op.End); err != nil {
			return nil, err
		}
	}
	if err := c.scheduleFaults(); err != nil {
		return nil, err
	}
	if err := c.scheduleInjected(); err != nil {
		return nil, err
	}
	if err := c.scheduleFaultyGPU(); err != nil {
		return nil, err
	}
	if err := c.scheduleWorkload(); err != nil {
		return nil, err
	}
	// Reconfigure device memory models at the period boundary.
	if _, err := c.engine.Schedule(c.cfg.Op.Start, func() {
		for _, n := range c.nodes {
			for _, g := range n.GPUs() {
				// Config was validated at New; per-device reconfigure
				// cannot fail.
				_ = g.Memory.Reconfigure(c.cfg.GPUOp.Memory)
			}
		}
		if c.monitor != nil {
			c.monitor.MarkAll()
		}
	}); err != nil {
		return nil, err
	}

	c.engine.Run(c.cfg.Op.End)
	c.sched.DrainPending()
	for _, n := range c.nodes {
		for _, j := range c.sched.JobsOnNode(n.Name()) {
			c.sched.Kill(j, slurmsim.StateCancelled, 0)
		}
	}
	if c.sinkErr != nil {
		return nil, fmt.Errorf("cluster: event sink: %w", c.sinkErr)
	}

	res := &Result{
		Events:        c.events,
		Jobs:          c.sched.Records(),
		ServiceEvents: c.services,
	}
	for _, n := range c.nodes {
		for _, d := range n.Ledger() {
			res.Downtimes = append(res.Downtimes, NodeDowntime{Node: n.Name(), Downtime: d})
		}
		fs := n.Fabric().Stats()
		res.Fabric.Faults += fs.Faults
		res.Fabric.CRCDetected += fs.CRCDetected
		res.Fabric.Replays += fs.Replays
		res.Fabric.Escalations += fs.Escalations
		res.Fabric.Propagated2P += fs.Propagated2P
	}
	if c.cfg.Workload != nil {
		res.CPU = workload.GenerateCPURecords(c.cfg.Seed, c.cfg.Workload.Scale)
	}
	if monitor := c.monitor; monitor != nil {
		res.HealthActions = monitor.Actions()
		res.HealthSweeps = monitor.Sweeps()
		res.ServiceEvents += len(res.HealthActions)
	}
	span.AddIn(int64(c.engine.Steps()))
	span.AddOut(int64(len(res.Events)))
	c.cfg.Obs.Gauge("sim.engine.steps").Set(int64(c.engine.Steps()))
	c.cfg.Obs.Gauge("sim.jobs").Set(int64(len(res.Jobs)))
	c.cfg.Obs.Gauge("sim.downtimes").Set(int64(len(res.Downtimes)))
	c.cfg.Obs.Gauge("sim.services").Set(int64(res.ServiceEvents))
	c.cfg.Obs.Gauge("sim.health.sweeps").Set(int64(res.HealthSweeps))
	return res, nil
}

// scheduleWorkload lazily submits the generated jobs in submit order.
func (c *Cluster) scheduleWorkload() error {
	if c.cfg.Workload == nil {
		return nil
	}
	gen, err := workload.NewGenerator(*c.cfg.Workload)
	if err != nil {
		return err
	}
	jobs := gen.Jobs()
	if len(jobs) == 0 {
		return nil
	}
	c.sched.Grow(len(jobs))
	// One submission event is pending at a time, so one func value with
	// its cursor in closure state serves every submission instant.
	next := 0
	var submitDue func()
	submitDue = func() {
		now := c.engine.Now()
		for next < len(jobs) && !jobs[next].Submit.After(now) {
			if err := c.sched.Submit(jobs[next]); err != nil {
				// Generated jobs are always valid; ignore defensively.
				_ = err
			}
			next++
		}
		if next < len(jobs) {
			if _, err := c.engine.Schedule(jobs[next].Submit, submitDue); err != nil {
				return
			}
		}
	}
	_, err = c.engine.Schedule(jobs[0].Submit, submitDue)
	return err
}

// scheduleFaults builds the pre-op and op plans and schedules every episode.
func (c *Cluster) scheduleFaults() error {
	topo := faults.Topology{
		Nodes:        len(c.nodes),
		GPUsPerNode:  4, // episode targeting uses the common 4-way layout
		ChronicNodes: c.cfg.ChronicNodes,
	}
	for _, pp := range []struct {
		period stats.Period
		specs  []faults.ProcessSpec
	}{
		{c.cfg.PreOp, c.cfg.PreOpFaults},
		{c.cfg.Op, c.cfg.OpFaults},
	} {
		if len(pp.specs) == 0 {
			continue
		}
		plan, err := faults.Build(c.cfg.Seed, pp.period, topo, pp.specs)
		if err != nil {
			return err
		}
		for i := range plan.Episodes {
			if err := c.scheduleEpisode(plan.Episodes[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// scheduleInjected validates and schedules the explicitly-placed episodes
// from cfg.Inject.
func (c *Cluster) scheduleInjected() error {
	for i, ep := range c.cfg.Inject {
		if ep.Kind < faults.KindMMU || ep.Kind > faults.KindSBE {
			return fmt.Errorf("cluster: injected episode %d: invalid kind %d", i, int(ep.Kind))
		}
		if ep.Node < 0 || ep.Node >= len(c.nodes) {
			return fmt.Errorf("cluster: injected episode %d: node %d out of range", i, ep.Node)
		}
		if len(ep.Times) == 0 {
			return fmt.Errorf("cluster: injected episode %d: no error instants", i)
		}
		for k, at := range ep.Times {
			if at.Before(c.cfg.PreOp.Start) || at.After(c.cfg.Op.End) {
				return fmt.Errorf("cluster: injected episode %d: time %v outside the simulation window", i, at)
			}
			if k > 0 && at.Before(ep.Times[k-1]) {
				return fmt.Errorf("cluster: injected episode %d: times not ascending", i)
			}
		}
		if err := c.scheduleEpisode(ep); err != nil {
			return err
		}
	}
	return nil
}

// episodeState tracks per-episode decisions.
type episodeState struct {
	ep      faults.Episode
	node    *nodesim.Node
	rng     *randx.Stream
	decided map[int]bool // job ID -> kill decision already made
	linkA   int
	linkB   int
	hotRow  int // the row an SBE episode keeps hitting
	next    int // index in ep.Times of the episode's next error
}

func (c *Cluster) scheduleEpisode(ep faults.Episode) error {
	node := c.nodes[ep.Node]
	st := &episodeState{
		ep:      ep,
		node:    node,
		rng:     c.rng.Derive(fmt.Sprintf("ep/%s/%d/%d", ep.Kind, ep.Node, ep.Start().UnixNano())),
		decided: make(map[int]bool),
	}
	if ep.Kind == faults.KindNVLink {
		st.linkA, st.linkB = -1, -1 // resolved lazily at the first fault
	}
	if ep.Kind == faults.KindSBE {
		st.hotRow = st.rng.Intn(1 << 16)
	}
	if ep.Kind != faults.KindNVLink && (ep.GPU < 0 || ep.GPU >= node.NumGPUs()) {
		st.ep.GPU = st.rng.Intn(node.NumGPUs())
	}
	// Times ascend, so the errors fire in index order and one callback
	// serves them all, runError counting them off.
	fire := func() { c.runError(st) }
	for _, at := range ep.Times {
		if _, err := c.engine.Schedule(at, fire); err != nil {
			return err
		}
	}
	return nil
}

// runError executes the episode's next error.
func (c *Cluster) runError(st *episodeState) {
	c.mark(st.ep.Node)
	now := c.engine.Now()
	node := st.node
	first := st.next == 0
	st.next++
	rule := c.rule(st.ep.Kind)

	switch st.ep.Kind {
	case faults.KindMMU:
		c.mmuError(now, node, st.ep.GPU, st.decided, rule, "invalid memory access or hardware fault")
	case faults.KindGSP:
		gpu := node.GPU(st.ep.GPU)
		timeout := first || st.rng.Bool(c.cfg.GSPTimeoutProb)
		c.emit(gpu.GSPError(now, timeout))
		if first {
			c.killScope(node, st.ep.GPU, st.decided, rule)
			// SREs hold the storming node out of service until the storm
			// ends, then reboot — GSP errors need a manual node recovery.
			if st.rng.Bool(rule.ServiceProb) {
				end := st.ep.Times[len(st.ep.Times)-1]
				if node.BeginServiceUntil("gsp storm", end) {
					c.services++
				}
			}
		}
		return
	case faults.KindPMU:
		gpu := node.GPU(st.ep.GPU)
		c.emit(gpu.PMUError(now, st.rng.Bool(0.9)))
		// PMU SPI failures do not crash jobs directly; they propagate to an
		// MMU fault moments later, which does (finding iv: failure via MMU
		// 96% of the time). The propagated MMU error carries the PMU rule's
		// kill probability.
		if st.rng.Bool(c.cfg.PMUPropagateProb) {
			delay := c.cfg.PMUPropagateDelay
			if delay <= 0 {
				delay = 5 * time.Second
			}
			decided := st.decided
			gpuIdx := st.ep.GPU
			pmuRule := rule
			if _, err := c.engine.After(delay, func() {
				c.mmuError(c.engine.Now(), node, gpuIdx, decided, pmuRule,
					"MMU fault following PMU SPI communication failure")
			}); err != nil {
				return
			}
		}
	case faults.KindNVLink:
		if st.linkA < 0 {
			st.linkA, st.linkB = c.pickLink(node, st.rng)
		}
		lf := node.Fabric().FaultPair(now, node.Name(), st.rng, st.linkA, st.linkB,
			func(a, b int) bool {
				j := c.sched.JobOnGPU(node.Name(), a)
				return j != nil && j == c.sched.JobOnGPU(node.Name(), b) && !st.decided[j.ID]
			})
		for _, ev := range lf.Events {
			c.emit(ev)
		}
		if lf.Active {
			if j := c.sched.JobOnGPU(node.Name(), lf.A); j != nil {
				st.decided[j.ID] = true
				if lf.Escalated {
					c.killJob(j)
				}
			}
		}
	case faults.KindBusOff:
		gpu := node.GPU(st.ep.GPU)
		c.emit(gpu.BusOff(now))
		// A device off the bus is unreachable until replaced; the health
		// checks discover it and swap it.
		gpu.MarkFailed()
		c.killScope(node, st.ep.GPU, st.decided, rule)
	case faults.KindUncorrectable:
		c.uncorrectable(now, node, st.ep.GPU, st.decided, rule)
		return // service decision handled inside (depends on cascade)
	case faults.KindSBE:
		// Correctable errors are silent; the episode hammers one hot row,
		// so its second error escalates to the uncorrectable cascade.
		gpu := node.GPU(st.ep.GPU)
		if gpu == nil {
			return
		}
		out, escalated := gpu.Correctable(now, st.hotRow, st.rng)
		if escalated {
			for _, ev := range out.Events {
				c.emit(ev)
			}
			ucRule := c.rule(faults.KindUncorrectable)
			c.applyMemOutcome(node, st.ep.GPU, out, st.decided, ucRule)
		}
		return
	}

	// The SRE health checks evaluate every error; a node already in service
	// coalesces the request (BeginService no-ops off the Up state).
	if st.rng.Bool(rule.ServiceProb) {
		c.service(node, st.ep.Kind.String())
	}
}

// killJob terminates a job as a GPU-failure victim, after the
// crash-to-accounting lag when configured.
func (c *Cluster) killJob(j *slurmsim.Job) {
	if c.cfg.KillLagMean <= 0 {
		c.sched.Kill(j, slurmsim.StateNodeFail, 1)
		return
	}
	lag := time.Duration(c.rng.Exponential(1/c.cfg.KillLagMean.Seconds()) * float64(time.Second))
	if _, err := c.engine.After(lag, func() {
		c.sched.Kill(j, slurmsim.StateNodeFail, 1)
	}); err != nil {
		c.sched.Kill(j, slurmsim.StateNodeFail, 1)
	}
}

// pickLink chooses the flaky link for an NVLink episode: with probability
// NVLinkActiveBias it pins a link whose endpoints are both held by one
// running multi-GPU job (traffic-induced CRC errors); otherwise, or when no
// link is active, a uniformly random link.
func (c *Cluster) pickLink(node *nodesim.Node, rng *randx.Stream) (int, int) {
	if rng.Bool(c.cfg.NVLinkActiveBias) {
		var active [][2]int
		n := node.NumGPUs()
		for a := 0; a < n; a++ {
			ja := c.sched.JobOnGPU(node.Name(), a)
			if ja == nil {
				continue
			}
			for b := a + 1; b < n; b++ {
				if c.sched.JobOnGPU(node.Name(), b) == ja {
					active = append(active, [2]int{a, b})
				}
			}
		}
		if len(active) > 0 {
			pair := active[rng.Intn(len(active))]
			return pair[0], pair[1]
		}
	}
	return node.Fabric().PickPair(rng)
}

// mmuError emits an MMU error and applies the MMU kill rule.
func (c *Cluster) mmuError(now time.Time, node *nodesim.Node, gpuIdx int,
	decided map[int]bool, rule ImpactRule, detail string) {
	gpu := node.GPU(gpuIdx)
	if gpu == nil {
		return
	}
	c.emit(gpu.MMUError(now, detail))
	if j := c.sched.JobOnGPU(node.Name(), gpuIdx); j != nil && !decided[j.ID] {
		decided[j.ID] = true
		if c.rng.Bool(rule.killProbFor(j.ML)) {
			c.killJob(j)
		}
	}
}

// killScope kills the affected GPU's job, or every job on the node for
// node-scope rules, honoring the kill probability once per job.
func (c *Cluster) killScope(node *nodesim.Node, gpuIdx int, decided map[int]bool, rule ImpactRule) {
	var victims []*slurmsim.Job
	if rule.KillNode {
		victims = c.sched.JobsOnNode(node.Name())
	} else if j := c.sched.JobOnGPU(node.Name(), gpuIdx); j != nil {
		victims = []*slurmsim.Job{j}
	}
	for _, j := range victims {
		if decided[j.ID] {
			continue
		}
		decided[j.ID] = true
		if c.rng.Bool(rule.killProbFor(j.ML)) {
			c.killJob(j)
		}
	}
}

// uncorrectable runs the memory cascade and its job/node consequences.
func (c *Cluster) uncorrectable(now time.Time, node *nodesim.Node, gpuIdx int,
	decided map[int]bool, rule ImpactRule) {
	gpu := node.GPU(gpuIdx)
	if gpu == nil {
		return
	}
	out := gpu.Uncorrectable(now, c.rng)
	for _, ev := range out.Events {
		c.emit(ev)
	}
	c.applyMemOutcome(node, gpuIdx, out, decided, rule)
}

// applyMemOutcome applies the job and node consequences of an uncorrectable
// memory cascade.
func (c *Cluster) applyMemOutcome(node *nodesim.Node, gpuIdx int,
	out gpusim.UncorrectableOutcome, decided map[int]bool, rule ImpactRule) {
	if out.Accessed {
		// Containment (successful or not) terminates the affected process.
		if j := c.sched.JobOnGPU(node.Name(), gpuIdx); j != nil && !decided[j.ID] {
			decided[j.ID] = true
			c.killJob(j)
		}
	}
	switch {
	case out.NeedsReset:
		// RRF or uncontained error: recovery required.
		c.service(node, "uncorrectable-memory")
	case c.rng.Bool(rule.ServiceProb):
		// RRE: a GPU reset is needed for the remap to take effect; SREs
		// batch these opportunistically.
		c.service(node, "row-remap-reset")
	}
}

func (c *Cluster) service(node *nodesim.Node, reason string) {
	if node.BeginService(reason) {
		c.services++
	}
}

// scheduleFaultyGPU wires the defective-device scenario.
func (c *Cluster) scheduleFaultyGPU() error {
	sc := c.cfg.FaultyGPU
	if sc == nil {
		return nil
	}
	if sc.Node < 0 || sc.Node >= len(c.nodes) {
		return fmt.Errorf("cluster: faulty GPU node %d out of range", sc.Node)
	}
	node := c.nodes[sc.Node]
	gpu := node.GPU(sc.GPU)
	if gpu == nil {
		return fmt.Errorf("cluster: faulty GPU index %d out of range", sc.GPU)
	}
	if sc.BurstCount < 0 || sc.UncorrectableRoots < 0 {
		return errors.New("cluster: negative faulty-GPU counts")
	}
	// Install the defective memory behavior at simulation start.
	if err := gpu.Memory.Reconfigure(sc.Memory); err != nil {
		return err
	}
	rng := c.rng.Derive("faulty-gpu")
	rule := c.rule(faults.KindUncorrectable)
	decided := make(map[int]bool)

	// Pre-burst uncorrectable roots.
	span := sc.BurstStart.Sub(sc.RootsStart)
	if span <= 0 {
		return errors.New("cluster: faulty GPU roots window is empty")
	}
	root := func() {
		c.mark(sc.Node)
		c.uncorrectable(c.engine.Now(), node, sc.GPU, decided, rule)
	}
	for _, h := range rng.UniformOrderStats(sc.UncorrectableRoots, span.Hours()) {
		at := sc.RootsStart.Add(time.Duration(h * float64(time.Hour)))
		if _, err := c.engine.Schedule(at, root); err != nil {
			return err
		}
	}

	// The persistent uncontained burst: repeated XID 95 without recovery.
	repeat := func() {
		c.mark(sc.Node)
		c.emit(gpu.UncontainedRepeat(c.engine.Now()))
	}
	for _, at := range faults.BurstTimes(rng, sc.BurstStart, sc.BurstDuration, sc.BurstCount) {
		if _, err := c.engine.Schedule(at, repeat); err != nil {
			return err
		}
	}

	// Replacement at burst end restores a healthy device.
	end := sc.BurstStart.Add(sc.BurstDuration)
	if _, err := c.engine.Schedule(end, func() {
		c.mark(sc.Node)
		if node.ForceReplace("faulty GPU replacement") {
			c.services++
		}
	}); err != nil {
		return err
	}
	return nil
}
