// Package stream turns the batch characterization pipeline into an
// incremental, long-running analysis: raw syslog lines arrive one at a time
// (from file tailers or in-process feeds), Stage I parses them online, and
// Stage II coalesces them under a watermark discipline that keeps resident
// state bounded by the coalescing horizon instead of the stream's length.
//
// The watermark rule is the heart of the package. Events may arrive slightly
// out of order (syslog duplication jitter, interleaved per-node buffers), so
// freshly parsed events wait in a small pending buffer. The watermark W is
// the newest event time seen minus the horizon; whenever W advances, every
// pending event at or before W is sealed: sorted into the canonical Stage II
// order (time, node, GPU, code — arrival order breaking ties), offered to a
// persistent coalescer, and the kept events appended to the stats store.
// Because every sealed event precedes every pending event in that order,
// the concatenation of sealed batches is exactly the batch pipeline's
// globally sorted stream — streaming and batch produce byte-identical
// tables over the same input (the equivalence test in this package holds
// that at multiple ingest chunkings).
//
// Events that arrive with a timestamp at or before the already-sealed
// watermark cannot be inserted without rewriting history; they are counted
// and quarantined (with samples), never silently dropped. The coalescer
// evicts tracked keys whose window fell behind the watermark, so open
// coalescing windows — not total keys ever seen — bound its size.
//
// The read path is a cached snapshot: a publisher renders Tables I-III and
// the availability analysis (JSON and the CLIs' text formats) into an
// immutable Snapshot, atomically swapped under the HTTP server (server.go).
// Serving never touches ingest state; ETags make unchanged snapshots cheap
// (304) for pollers. Checkpoints (checkpoint.go) extend the run-manifest
// idea into a replayable record: a restarted daemon resumes from the last
// sealed watermark without re-reading history. See docs/service.md.
package stream

import (
	"fmt"
	"slices"
	"time"

	"gpuresilience/internal/cluster"
	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/core"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/workload"
)

// DefaultHorizon is the default sealing horizon: how far behind the newest
// event time the watermark trails, i.e. how much event-time disorder the
// stream may exhibit before late events are quarantined. The study's 20 s
// attribution window is a natural choice — it already bounds how much
// temporal context Stage III ever needs around an event, and it dwarfs the
// syslog writer's millisecond-scale duplication jitter.
const DefaultHorizon = 20 * time.Second

// DefaultQuarantineSample is how many late events the quarantine retains as
// samples for diagnosis (the count is always exact; samples are capped).
const DefaultQuarantineSample = 8

// Config parameterizes a streaming engine.
type Config struct {
	// Pipeline carries the analysis settings (coalescing window, attribution
	// window, periods, node count, outlier rule, workers, Obs registry) —
	// the same configuration the batch pipeline takes, so a streaming run
	// and a batch run are comparable by construction.
	Pipeline core.PipelineConfig
	// Horizon is how far event time may run behind the newest seen event
	// before it is sealed. Zero means DefaultHorizon.
	Horizon time.Duration
	// Jobs is the static Slurm job database the Stage III join reads.
	Jobs []*slurmsim.Job
	// Downtimes is the static node repair log for the availability analysis.
	Downtimes []cluster.NodeDowntime
	// CPU is the CPU-partition summary for Table III's success-rate line.
	CPU workload.CPURecord
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Horizon == 0 {
		c.Horizon = DefaultHorizon
	}
	return c
}

func (c Config) validate() error {
	if c.Horizon < 0 {
		return fmt.Errorf("stream: negative horizon %v", c.Horizon)
	}
	if c.Pipeline.CoalesceWindow < 0 {
		return fmt.Errorf("stream: negative coalesce window %v", c.Pipeline.CoalesceWindow)
	}
	return nil
}

// SourceState is one ingest source's progress and replay position: the
// engine's per-source record, listed in Status and in checkpoints.
type SourceState struct {
	// Name identifies the source (a tailed path or a feed name).
	Name string `json:"name"`
	// Lines is the highest line number consumed from this source.
	Lines int64 `json:"lines"`
	// Bytes is how many line bytes this source has delivered.
	Bytes int64 `json:"bytes"`
	// Dups counts re-delivered lines (line numbers at or below the consumed
	// high-water mark) skipped for at-least-once delivery after a resume.
	Dups int64 `json:"dups,omitempty"`
	// ClockRegressions counts lines whose event timestamp ran backwards
	// relative to the previous event from the same source.
	ClockRegressions int64 `json:"clockRegressions,omitempty"`
	// LastEvent is the newest event timestamp this source produced.
	LastEvent time.Time `json:"lastEvent,omitempty"`
	// Offset is the byte offset the source's tailer had consumed through.
	// Only the daemon sets it, in the checkpoints it writes; the engine
	// keeps it zero.
	Offset int64 `json:"offset,omitempty"`
}

// State is the engine's stream state: everything a restart carries over
// besides the coalescer's open windows and the per-source records. The
// engine holds one State and a Checkpoint embeds it, so a field added here
// is checkpointed and resumed with no further code.
type State struct {
	// Watermark is the sealing frontier: everything at or before it is final.
	Watermark    time.Time `json:"watermark"`
	HasWatermark bool      `json:"hasWatermark"` // see Watermark
	// MaxEventTime is the newest event time seen.
	MaxEventTime time.Time `json:"maxEventTime"`
	HasMaxEvent  bool      `json:"hasMaxEvent"` // see MaxEventTime
	// SealedRaw counts events sealed into Stage II, pre-coalescing.
	SealedRaw int `json:"sealedRaw"`
	// Sealed is the coalesced Stage II store in canonical order.
	Sealed coalesce.Blocks `json:"sealed,omitempty"`
	// Pending holds unsealed events in arrival order.
	Pending coalesce.Blocks `json:"pending,omitempty"`
	// Extract is the cumulative Stage I line accounting.
	Extract syslog.ExtractStats `json:"extract"`
	// Quarantine is the late-event record.
	Quarantine Quarantine `json:"quarantine"`
	// Gen increments on every state change.
	Gen uint64 `json:"gen"`
}

// clone returns a copy of s that shares no slice with it.
func (s State) clone() State {
	s.Sealed = s.Sealed.Clone()
	s.Pending = s.Pending.Clone()
	s.Quarantine.Samples = slices.Clone(s.Quarantine.Samples)
	return s
}

// LateEvent is one quarantined event: it arrived with a timestamp at or
// before the sealed watermark, after its window had already been flushed.
type LateEvent struct {
	// Source is the ingest source that delivered the late line.
	Source string `json:"source"`
	// Line is the line number within the source.
	Line int64 `json:"line"`
	// Time is the event's (too old) timestamp.
	Time time.Time `json:"time"`
	// Node and GPU identify the device; Code is the XID.
	Node string `json:"node"`
	// GPU is the GPU index within the node.
	GPU int `json:"gpu"`
	// Code is the event's XID code.
	Code int `json:"code"`
	// Watermark is where the seal stood when the event arrived.
	Watermark time.Time `json:"watermark"`
}

// Quarantine accounts for late events: exact counts, bounded samples.
type Quarantine struct {
	// Late counts events quarantined for arriving behind the watermark.
	Late int64 `json:"late"`
	// Samples retains the first few late events for diagnosis.
	Samples []LateEvent `json:"samples,omitempty"`
}

// Status is the engine's current ingest-side state, served by /healthz and
// embedded in table documents.
type Status struct {
	// Watermark is the sealed horizon: everything at or before it is final.
	Watermark time.Time `json:"watermark"`
	// MaxEventTime is the newest event timestamp seen.
	MaxEventTime time.Time `json:"maxEventTime"`
	// PendingEvents is the open-window buffer size (events newer than the
	// watermark, not yet sealed).
	PendingEvents int `json:"pendingEvents"`
	// OpenWindows is how many coalescing keys are currently tracked.
	OpenWindows int `json:"openWindows"`
	// SealedRawEvents counts events sealed into Stage II (pre-coalescing).
	SealedRawEvents int `json:"sealedRawEvents"`
	// SealedEvents counts coalesced events in the stats store.
	SealedEvents int `json:"sealedEvents"`
	// Extract is the running Stage I line accounting.
	Extract syslog.ExtractStats `json:"extract"`
	// Quarantine reports late-event counts and samples.
	Quarantine Quarantine `json:"quarantine"`
	// Sources lists per-source progress, sorted by name.
	Sources []SourceState `json:"sources,omitempty"`
	// Gen increments on every state change; the publisher uses it to skip
	// rebuilding snapshots when nothing moved.
	Gen uint64 `json:"gen"`
}

// OpenState is what must stay bounded in a long-running engine: the pending
// buffer plus the tracked coalescing keys. The memory-bound test asserts it
// never exceeds a horizon-proportional cap over a multi-hour replay.
func (s Status) OpenState() int { return s.PendingEvents + s.OpenWindows }
