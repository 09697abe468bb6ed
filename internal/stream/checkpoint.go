package stream

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gpuresilience/internal/cluster"
	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/core"
	"gpuresilience/internal/obs"
)

// checkpointVersion guards the on-disk format; Load rejects other versions
// instead of silently misreading state.
const checkpointVersion = 1

// CoalescerState is the persistent coalescer's checkpointed form.
type CoalescerState struct {
	// Entries are the open per-(node,gpu,code) windows.
	Entries []coalesce.KeyState `json:"entries,omitempty"`
	// Raw and Kept restore the coalescer's event accounting.
	Raw  int `json:"raw"`
	Kept int `json:"kept"` // see Raw
}

// Checkpoint is a replayable record of a streaming run — the run-manifest
// idea extended with resume state. A daemon restarted from a checkpoint
// continues from the last sealed watermark: the engine's State (sealed
// results, the pending buffer, the quarantine), the coalescer's open
// windows and the per-source positions all carry over, so it never
// re-reads history and redelivered lines dedupe against the per-source
// line marks.
type Checkpoint struct {
	// Version is the on-disk format version; Resume rejects others.
	Version int `json:"version"`
	// Manifest is the provenance record (tool, go version, pipeline
	// settings, input digests) the batch CLIs emit, reused unchanged.
	Manifest *obs.RunManifest `json:"manifest,omitempty"`

	// Horizon is the watermark horizon the run used; Resume refuses a
	// mismatch, since it changes which events would have been quarantined.
	Horizon time.Duration `json:"horizon"`

	// State is the engine's stream state, verbatim.
	State

	// Coalescer restores the open coalescing windows.
	Coalescer CoalescerState `json:"coalescer"`
	// Sources are the per-source replay positions, sorted by name.
	Sources []SourceState `json:"sources,omitempty"`
}

// Checkpoint snapshots the engine into a replayable record. The daemon adds
// tailer offsets and the manifest before saving.
func (e *Engine) Checkpoint() *Checkpoint {
	e.mu.Lock()
	defer e.mu.Unlock()
	entries, raw, kept := e.co.State()
	return &Checkpoint{
		Version:   checkpointVersion,
		Horizon:   e.cfg.Horizon,
		State:     e.st.clone(),
		Coalescer: CoalescerState{Entries: entries, Raw: raw, Kept: kept},
		Sources:   e.sourceList(),
	}
}

// Resume rebuilds an engine from a checkpoint; a nil checkpoint is a cold
// start. cfg supplies the analysis settings and static inputs (jobs,
// downtimes, CPU record) — those are not checkpointed; the checkpoint
// carries only stream state. The coalescer is restored with cfg's window,
// which must match the checkpointed run for the resumed output to stay
// equivalent. The engine's Stage III accumulator is built here, with the
// job-only tables computed once; it is derived from the sealed store, not
// checkpointed, and the first Results folds the resumed store into it.
func Resume(cfg Config, cp *Checkpoint) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cp == nil {
		cp = &Checkpoint{Version: checkpointVersion, Horizon: cfg.Horizon}
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("stream: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	if cp.Horizon != cfg.Horizon {
		return nil, fmt.Errorf("stream: checkpoint horizon %v, config %v", cp.Horizon, cfg.Horizon)
	}
	co, err := coalesce.Restore(cfg.Pipeline.CoalesceWindow, cp.Coalescer.Entries, cp.Coalescer.Raw, cp.Coalescer.Kept)
	if err != nil {
		return nil, err
	}
	fold, err := core.NewStageIII(cfg.Jobs, cluster.Durations(cfg.Downtimes), cfg.CPU, cfg.Pipeline)
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, st: cp.State.clone(), co: co, sources: make(map[string]*SourceState, len(cp.Sources)), fold: fold}
	e.pending, e.sealed = e.st.Pending.Len(), e.st.Sealed.Len()
	for _, src := range cp.Sources {
		src.Offset = 0 // tailer positions are the daemon's (RestoreTailers)
		e.sources[src.Name] = &src
	}
	return e, nil
}

// source returns the record of the named source, or nil.
func (cp *Checkpoint) source(name string) *SourceState {
	for i := range cp.Sources {
		if cp.Sources[i].Name == name {
			return &cp.Sources[i]
		}
	}
	return nil
}

// SaveCheckpoint writes the checkpoint atomically: a temp file in the
// target directory, fsynced, then renamed over the destination, so a crash
// mid-write never leaves a torn checkpoint behind.
func SaveCheckpoint(path string, cp *Checkpoint) error {
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*.json")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cp, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("stream: checkpoint %s: %w", path, err)
	}
	return cp, nil
}

// decodeCheckpoint is LoadCheckpoint over the file's bytes.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, err
	}
	return &cp, nil
}
