package stream

import (
	"slices"
	"strings"
	"sync"
	"time"

	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/core"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// Engine is the streaming Stage I/II state machine. Sources push raw lines
// through ConsumeLine; Advance seals everything behind the watermark into
// the stats store; Results folds the newly sealed events into the engine's
// Stage III accumulator and derives the tables. All methods are safe for
// concurrent use, though the intended shape is one ingest goroutine calling
// ConsumeLine/Advance and one publisher goroutine calling Status/Results.
//
// Lock order: foldMu before mu. Ingest takes only mu, so Stage III never
// stalls it.
type Engine struct {
	mu  sync.Mutex
	cfg Config // immutable after Resume; read outside the lock

	st      State                   // guarded by mu
	co      *coalesce.Coalescer     // guarded by mu
	sources map[string]*SourceState // guarded by mu
	// pending and sealed count the events of st.Pending and st.Sealed.
	pending int // guarded by mu
	sealed  int // guarded by mu
	// spare holds the cleared blocks seals emptied out of st.Pending, for
	// ConsumeLine to fill again.
	spare [][]xid.Event // guarded by mu

	foldMu sync.Mutex
	fold   *core.StageIII // guarded by foldMu
	// folded is how many events of st.Sealed the fold holds. Sealed is
	// append-only, so the rest is exactly what the next fold adds.
	folded int // guarded by foldMu
}

// New returns an Engine for the given configuration: a cold start.
func New(cfg Config) (*Engine, error) { return Resume(cfg, nil) }

// ConsumeLine ingests one raw log line from a source. lineNo is the
// 1-based line number within the source; lines at or below the source's
// consumed high-water mark are counted as duplicates and skipped, which is
// what makes redelivery after a checkpoint resume harmless. Every other
// line goes through batch Stage I's per-line step, syslog.CountLine, which
// skips a line that holds a newline; a record's event keeps its node and
// detail as substrings of line.
func (e *Engine) ConsumeLine(source string, lineNo int64, line string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	src := e.sources[source]
	if src == nil {
		src = &SourceState{Name: source}
		e.sources[source] = src
	}
	if lineNo <= src.Lines {
		src.Dups++
		e.st.Gen++
		return nil
	}
	src.Lines = lineNo
	src.Bytes += int64(len(line))
	e.st.Gen++

	var ev xid.Event
	if !syslog.CountLine(&e.st.Extract, line, &ev) {
		return nil
	}

	// The stream's own clocks stay time.Time, whose zero means unset.
	at := ev.Time.Time()
	if !src.LastEvent.IsZero() && at.Before(src.LastEvent) {
		src.ClockRegressions++
	}
	if at.After(src.LastEvent) {
		src.LastEvent = at
	}

	// An event at or before the watermark arrived after its window was
	// sealed; inserting it would rewrite published tables, so it goes to
	// the quarantine — counted exactly, sampled for diagnosis.
	if e.st.HasWatermark && !at.After(e.st.Watermark) {
		e.st.Quarantine.Late++
		if len(e.st.Quarantine.Samples) < DefaultQuarantineSample {
			e.st.Quarantine.Samples = append(e.st.Quarantine.Samples, LateEvent{
				Source:    source,
				Line:      lineNo,
				Time:      at,
				Node:      ev.Node,
				GPU:       int(ev.GPU),
				Code:      int(ev.Code),
				Watermark: e.st.Watermark,
			})
		}
		return nil
	}

	e.st.Pending.Append(ev, &e.spare)
	e.pending++
	if !e.st.HasMaxEvent || at.After(e.st.MaxEventTime) {
		e.st.MaxEventTime = at
		e.st.HasMaxEvent = true
	}
	return nil
}

// Advance moves the watermark to the newest event time minus the horizon
// and seals everything at or behind it. Returns how many raw events were
// sealed. Call it after each ingest batch; it is cheap when nothing moved.
func (e *Engine) Advance() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.st.HasMaxEvent {
		return 0
	}
	return e.sealThrough(e.st.MaxEventTime.Add(-e.cfg.Horizon))
}

// FlushAll seals every pending event regardless of the horizon — the
// end-of-stream finalization. After it returns, the tables reflect all
// consumed input, and any event arriving at or before the final watermark
// is quarantined.
func (e *Engine) FlushAll() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.st.HasMaxEvent {
		return 0
	}
	return e.sealThrough(e.st.MaxEventTime)
}

// sealThrough advances the watermark to cutoff (never backwards) and seals
// the pending events at or before it, appending the kept ones straight to
// Sealed. Caller holds e.mu.
//
// The equivalence argument: pending holds arrival order, and
// AppendKeptThrough offers the sealed events in coalesce.Compare order with
// pending position breaking ties, which is exactly the order the batch
// pipeline's Stage II gives those events, because every event in this seal
// precedes every event still pending or yet to arrive (all strictly after
// cutoff) and follows every previously sealed event (all at or before the
// previous watermark). Feeding the persistent coalescer seal after seal is
// therefore identical to one batch coalesce over the whole stream.
// DropThrough then keeps the rest of pending in arrival order, in its
// leading blocks, and hands the blocks it empties to spare.
func (e *Engine) sealThrough(cutoff time.Time) int {
	if e.st.HasWatermark && !cutoff.After(e.st.Watermark) {
		return 0
	}
	e.sealed += e.co.AppendKeptThrough(&e.st.Sealed, e.st.Pending, cutoff)
	sealed := 0
	if through, ok := xid.Latest(cutoff); ok {
		sealed = e.st.Pending.DropThrough(through, &e.spare)
	}
	e.pending -= sealed
	e.st.SealedRaw += sealed
	e.st.Watermark = cutoff
	e.st.HasWatermark = true
	e.st.Gen++
	// Keys whose window fell behind the watermark can never suppress a
	// future event (everything still to come is after the cutoff), so the
	// coalescer forgets them — this is what bounds resident state.
	e.co.EvictBefore(cutoff)
	return sealed
}

// Status reports the engine's ingest-side state.
func (e *Engine) Status() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Status{
		Watermark:       e.st.Watermark,
		MaxEventTime:    e.st.MaxEventTime,
		PendingEvents:   e.pending,
		OpenWindows:     e.co.Len(),
		SealedRawEvents: e.st.SealedRaw,
		SealedEvents:    e.sealed,
		Extract:         e.st.Extract,
		Quarantine:      Quarantine{Late: e.st.Quarantine.Late, Samples: slices.Clone(e.st.Quarantine.Samples)},
		Sources:         e.sourceList(),
		Gen:             e.st.Gen,
	}
}

// sourceList copies the per-source records, sorted by name.
// Caller holds e.mu.
func (e *Engine) sourceList() []SourceState {
	out := make([]SourceState, 0, len(e.sources))
	for _, src := range e.sources {
		out = append(out, *src)
	}
	slices.SortFunc(out, func(a, b SourceState) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Results returns the same Results the batch pipeline produces for the
// sealed prefix of the stream. It folds the events sealed since its
// previous call into the engine's Stage III accumulator and derives the
// tables from it. The store is already Stage II's output, coalesced and in
// canonical order, so the fold reads its blocks directly. Only the new
// suffix's block bounds are read under the ingest lock; the fold runs
// under its own lock, so a long Stage III never stalls ingest.
func (e *Engine) Results() (*core.Results, error) {
	e.foldMu.Lock()
	defer e.foldMu.Unlock()
	e.mu.Lock()
	suffix := e.st.Sealed.From(e.folded)
	sealed := e.sealed
	extract := e.st.Extract
	sealedRaw := e.st.SealedRaw
	e.mu.Unlock()

	if err := e.fold.Add(suffix...); err != nil {
		return nil, err
	}
	e.folded = sealed
	res, err := e.fold.Results()
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
	return e.st.Gen
}
