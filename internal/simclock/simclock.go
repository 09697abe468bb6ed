// Package simclock implements the discrete-event simulation engine that
// drives the Delta cluster model. Events execute in strict timestamp order
// with deterministic tie-breaking (priority, then scheduling sequence), so a
// simulation is fully reproducible given the same inputs.
package simclock

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// ErrPastEvent is returned when an event is scheduled before the current
// simulation time.
var ErrPastEvent = errors.New("simclock: event scheduled in the past")

// Handle identifies a scheduled event and allows cancellation. It names a
// slot in the engine's slot table plus the generation the slot had when the
// event was scheduled; firing or cancelling the event bumps the generation,
// so a stale handle (including the zero Handle) never cancels anything.
type Handle struct {
	slot uint32
	gen  uint32
}

// slot holds what the heap need not move: the exact scheduled time, the
// callback, and the event's current heap index. The callback is either fn
// or argFn applied to arg (AfterArg), never both. gen starts at 1, so the
// zero Handle matches no slot (a generation wraps only after 2^32 reuses
// of one slot).
type slot struct {
	at    time.Time
	fn    func()
	argFn func(any)
	arg   any
	heap  int
	gen   uint32
}

// entry is one queued event. (sec, nsec) is the scheduled time's Unix
// instant, so ordering compares integers instead of calling time.Time
// methods; the exact time.Time lives in the entry's slot.
type entry struct {
	sec  int64
	nsec int32
	slot uint32
	pri  int
	seq  uint64
}

// less orders by (time, priority, sequence), keeping runs deterministic.
func (a *entry) less(b *entry) bool {
	if a.sec != b.sec {
		return a.sec < b.sec
	}
	if a.nsec != b.nsec {
		return a.nsec < b.nsec
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event executor. It is not safe for
// concurrent use; the simulation model is deterministic and single-threaded
// by design.
type Engine struct {
	now     time.Time
	queue   []entry // binary min-heap under entry.less
	slots   []slot
	free    []uint32 // recycled slot indexes
	nextSeq uint64
	steps   uint64
}

// NewEngine returns an engine whose clock starts at start.
func NewEngine(start time.Time) *Engine {
	return &Engine{now: start}
}

// Now returns the current simulation time.
func (e *Engine) Now() time.Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending returns the number of events currently queued.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule enqueues fn to run at time at with priority 0.
func (e *Engine) Schedule(at time.Time, fn func()) (Handle, error) {
	return e.SchedulePri(at, 0, fn)
}

// SchedulePri enqueues fn to run at time at. Events with equal timestamps run
// in ascending priority order; equal (time, priority) events run in
// scheduling order. Scheduling at exactly the current time is allowed and the
// event runs before the clock advances further.
func (e *Engine) SchedulePri(at time.Time, pri int, fn func()) (Handle, error) {
	return e.push(at, pri, fn, nil, nil)
}

// After enqueues fn to run d after the current time.
func (e *Engine) After(d time.Duration, fn func()) (Handle, error) {
	return e.Schedule(e.now.Add(d), fn)
}

// AfterArg enqueues fn(arg) to run d after the current time. It orders
// exactly like After, but a caller that binds fn once schedules per-object
// events (one per job, say) without allocating a closure for each.
func (e *Engine) AfterArg(d time.Duration, fn func(any), arg any) (Handle, error) {
	return e.push(e.now.Add(d), 0, nil, fn, arg)
}

// push enqueues one event whose callback is fn or, when fn is nil,
// argFn(arg).
func (e *Engine) push(at time.Time, pri int, fn func(), argFn func(any), arg any) (Handle, error) {
	if at.Before(e.now) {
		return Handle{}, fmt.Errorf("%w: at=%s now=%s", ErrPastEvent, at, e.now)
	}
	if fn == nil && argFn == nil {
		return Handle{}, errors.New("simclock: nil event function")
	}
	if len(e.free) == 0 {
		e.free = append(e.free, uint32(len(e.slots)))
		e.slots = append(e.slots, slot{gen: 1})
	}
	s := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	sl := &e.slots[s]
	sl.at, sl.fn, sl.argFn, sl.arg, sl.heap = at, fn, argFn, arg, len(e.queue)
	e.queue = append(e.queue, entry{sec: at.Unix(), nsec: int32(at.Nanosecond()), slot: s, pri: pri, seq: e.nextSeq})
	e.nextSeq++
	e.fix(len(e.queue) - 1)
	return Handle{slot: s, gen: sl.gen}, nil
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op and returns false.
func (e *Engine) Cancel(h Handle) bool {
	if int(h.slot) >= len(e.slots) || e.slots[h.slot].gen != h.gen {
		return false
	}
	e.remove(h.slot)
	return true
}

// Step executes the next event, advancing the clock to its timestamp.
// It returns false if the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.remove(e.queue[0].slot)
	e.now = ev.at
	e.steps++
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.argFn(ev.arg)
	}
	return true
}

// Run executes events until the queue is empty or the next event is after
// until. The clock is left at until (or at the last event time if that is
// later than until, which cannot happen by construction).
func (e *Engine) Run(until time.Time) {
	// bound sorts after every event at until: an event is due unless after it.
	bound := entry{sec: until.Unix(), nsec: int32(until.Nanosecond()), pri: math.MaxInt, seq: math.MaxUint64}
	for len(e.queue) > 0 && !bound.less(&e.queue[0]) {
		e.Step()
	}
	if e.now.Before(until) {
		e.now = until
	}
}

// RunAll executes events until the queue is empty.
func (e *Engine) RunAll() {
	for e.Step() {
	}
}

// remove takes slot s's event out of the heap and retires the slot: its
// generation moves on, so every handle to the event goes stale, and the
// slot joins the free list. It returns the event as it was.
func (e *Engine) remove(s uint32) slot {
	sl := &e.slots[s]
	i, last := sl.heap, len(e.queue)-1
	e.queue[i] = e.queue[last]
	e.slots[e.queue[i].slot].heap = i
	e.queue = e.queue[:last]
	if i < last {
		e.fix(i)
	}
	ev := *sl
	sl.fn, sl.argFn, sl.arg = nil, nil, nil
	sl.gen++
	e.free = append(e.free, s)
	return ev
}

// swap exchanges heap positions i and j and keeps their slots' indexes.
func (e *Engine) swap(i, j int) {
	q := e.queue
	q[i], q[j] = q[j], q[i]
	e.slots[q[i].slot].heap = i
	e.slots[q[j].slot].heap = j
}

// fix restores the heap order around position i: the entry there sifts
// toward the root, and when it cannot rise, toward the leaves.
func (e *Engine) fix(i int) {
	for i > 0 && e.queue[i].less(&e.queue[(i-1)/2]) {
		e.swap(i, (i-1)/2)
		i = (i - 1) / 2
	}
	for n := len(e.queue); 2*i+1 < n; {
		c := 2*i + 1
		if c+1 < n && e.queue[c+1].less(&e.queue[c]) {
			c++
		}
		if !e.queue[c].less(&e.queue[i]) {
			break
		}
		e.swap(i, c)
		i = c
	}
}
