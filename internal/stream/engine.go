package stream

import (
	"sort"
	"sync"
	"time"

	"gpuresilience/internal/cluster"
	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/core"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// Engine is the streaming Stage I/II state machine. Sources push raw lines
// through ConsumeLine; Advance seals everything behind the watermark into
// the stats store; Results runs the full Stage III analysis over the sealed
// store. All methods are safe for concurrent use, though the intended shape
// is one ingest goroutine calling ConsumeLine/Advance and one publisher
// goroutine calling Status/Results.
type Engine struct {
	mu  sync.Mutex
	cfg Config // immutable after New/Resume; read outside the lock

	co      *coalesce.Coalescer // guarded by mu
	pending []xid.Event         // guarded by mu; arrival order, all newer than the watermark
	sealed  []xid.Event         // guarded by mu; coalesced events, canonical Stage II order

	sealedRaw    int       // guarded by mu; events sealed into Stage II, pre-coalescing
	watermark    time.Time // guarded by mu
	hasWatermark bool      // guarded by mu
	maxEvent     time.Time // guarded by mu
	hasMaxEvent  bool      // guarded by mu

	extract    syslog.ExtractStats     // guarded by mu
	quarantine Quarantine              // guarded by mu
	sources    map[string]*sourceState // guarded by mu
	gen        uint64                  // guarded by mu
}

// sourceState is the mutable per-source ingest record.
type sourceState struct {
	lines     int64 // consumed line-number high-water mark
	bytes     int64
	dups      int64
	clockRegs int64
	lastEvent time.Time
}

// New returns an Engine for the given configuration.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	co, err := coalesce.New(cfg.Pipeline.CoalesceWindow)
	if err != nil {
		return nil, err
	}
	return &Engine{
		cfg:     cfg,
		co:      co,
		sources: make(map[string]*sourceState),
	}, nil
}

// ConsumeLine ingests one raw log line from a source. lineNo is the
// 1-based line number within the source; lines at or below the source's
// consumed high-water mark are counted as duplicates and skipped, which is
// what makes redelivery after a checkpoint resume harmless. Lines that
// match the Xid shape but fail field parsing are counted as malformed and
// skipped, exactly as the batch extractor does.
func (e *Engine) ConsumeLine(source string, lineNo int64, line string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	src := e.sources[source]
	if src == nil {
		src = &sourceState{}
		e.sources[source] = src
	}
	if lineNo <= src.lines {
		src.dups++
		e.gen++
		return nil
	}
	src.lines = lineNo
	src.bytes += int64(len(line))
	e.gen++

	e.extract.Lines++
	ev, ok, err := syslog.ParseLine(line)
	if err != nil {
		e.extract.Malformed++
		return nil
	}
	if !ok {
		e.extract.Skipped++
		return nil
	}
	e.extract.XIDLines++

	if !src.lastEvent.IsZero() && ev.Time.Before(src.lastEvent) {
		src.clockRegs++
	}
	if ev.Time.After(src.lastEvent) {
		src.lastEvent = ev.Time
	}

	// An event at or before the watermark arrived after its window was
	// sealed; inserting it would rewrite published tables, so it goes to
	// the quarantine — counted exactly, sampled for diagnosis.
	if e.hasWatermark && !ev.Time.After(e.watermark) {
		e.quarantine.Late++
		if len(e.quarantine.Samples) < e.cfg.QuarantineSample {
			e.quarantine.Samples = append(e.quarantine.Samples, LateEvent{
				Source:    source,
				Line:      lineNo,
				Time:      ev.Time,
				Node:      ev.Node,
				GPU:       ev.GPU,
				Code:      int(ev.Code),
				Watermark: e.watermark,
			})
		}
		return nil
	}

	e.pending = append(e.pending, ev)
	if !e.hasMaxEvent || ev.Time.After(e.maxEvent) {
		e.maxEvent = ev.Time
		e.hasMaxEvent = true
	}
	return nil
}

// Advance moves the watermark to the newest event time minus the horizon
// and seals everything at or behind it. Returns how many raw events were
// sealed. Call it after each ingest batch; it is cheap when nothing moved.
func (e *Engine) Advance() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.hasMaxEvent {
		return 0
	}
	return e.sealThrough(e.maxEvent.Add(-e.cfg.Horizon))
}

// FlushAll seals every pending event regardless of the horizon — the
// end-of-stream finalization. After it returns, the tables reflect all
// consumed input, and any event arriving at or before the final watermark
// is quarantined.
func (e *Engine) FlushAll() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.hasMaxEvent {
		return 0
	}
	return e.sealThrough(e.maxEvent)
}

// sealThrough advances the watermark to cutoff (never backwards) and seals
// the pending prefix at or before it. Caller holds e.mu.
//
// The equivalence argument: pending holds arrival order; the stable
// partition below keeps that order within the sealed batch; the stable sort
// by coalesce.Compare then produces exactly the order the batch pipeline's
// global stable sort gives those events, because every event in this batch
// precedes every event still pending or yet to arrive (all strictly after
// cutoff) and follows every previously sealed event (all at or before the
// previous watermark). Feeding the persistent coalescer batch after batch
// is therefore identical to one batch coalesce over the whole stream.
func (e *Engine) sealThrough(cutoff time.Time) int {
	if e.hasWatermark && !cutoff.After(e.watermark) {
		return 0
	}
	sealNow := make([]xid.Event, 0, len(e.pending))
	keep := e.pending[:0]
	for _, ev := range e.pending {
		if !ev.Time.After(cutoff) {
			sealNow = append(sealNow, ev)
		} else {
			keep = append(keep, ev)
		}
	}
	e.pending = keep
	e.watermark = cutoff
	e.hasWatermark = true
	e.gen++
	if len(sealNow) > 0 {
		e.sealed = append(e.sealed, e.co.AddBatch(sealNow)...)
		e.sealedRaw += len(sealNow)
	}
	// Keys whose window fell behind the watermark can never suppress a
	// future event (everything still to come is after the cutoff), so the
	// coalescer forgets them — this is what bounds resident state.
	e.co.EvictBefore(cutoff)
	return len(sealNow)
}

// Status reports the engine's ingest-side state.
func (e *Engine) Status() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Status{
		Watermark:       e.watermark,
		MaxEventTime:    e.maxEvent,
		PendingEvents:   len(e.pending),
		OpenWindows:     e.co.Len(),
		SealedRawEvents: e.sealedRaw,
		SealedEvents:    len(e.sealed),
		Extract:         e.extract,
		Quarantine: Quarantine{
			Late:    e.quarantine.Late,
			Samples: append([]LateEvent(nil), e.quarantine.Samples...),
		},
		Gen: e.gen,
	}
	names := make([]string, 0, len(e.sources))
	for name := range e.sources {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		src := e.sources[name]
		st.Sources = append(st.Sources, SourceStatus{
			Name:             name,
			Lines:            src.lines,
			Bytes:            src.bytes,
			Dups:             src.dups,
			ClockRegressions: src.clockRegs,
			LastEvent:        src.lastEvent,
		})
	}
	return st
}

// Results runs the Stage III analysis over the sealed store and returns the
// same Results the batch pipeline produces for the sealed prefix of the
// stream. The sealed slice is copied under the lock and analyzed outside
// it, so a long Stage III never stalls ingest. The store is already Stage
// II's output, coalesced and in canonical order, so Stage III reads it
// directly.
func (e *Engine) Results() (*core.Results, error) {
	e.mu.Lock()
	sealed := e.sealed[:len(e.sealed):len(e.sealed)]
	extract := e.extract
	sealedRaw := e.sealedRaw
	e.mu.Unlock()

	res, err := core.AnalyzeCoalesced(sealed, e.cfg.Jobs, cluster.Durations(e.cfg.Downtimes), e.cfg.CPU, e.cfg.Pipeline)
	if err != nil {
		return nil, err
	}
	res.Extract = extract
	res.RawEvents = sealedRaw
	return res, nil
}

// Gen returns the engine's change counter without building a full Status.
func (e *Engine) Gen() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gen
}
