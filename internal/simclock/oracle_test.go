package simclock

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// oracleEngine is the container/heap engine the value heap replaced, kept
// as the reference: one heap-allocated handle per event, ordered by
// (time, priority, sequence) through time.Time comparisons, cancelled
// eagerly with heap.Remove.
type oracleEngine struct {
	now     time.Time
	queue   oracleHeap
	nextSeq uint64
	steps   uint64
}

type oracleHandle struct {
	seq   uint64
	index int // heap index; -1 once popped or cancelled
	at    time.Time
	pri   int
	fn    func()
}

func (e *oracleEngine) schedulePri(at time.Time, pri int, fn func()) (*oracleHandle, error) {
	if at.Before(e.now) {
		return nil, ErrPastEvent
	}
	if fn == nil {
		return nil, errors.New("nil event function")
	}
	h := &oracleHandle{seq: e.nextSeq, at: at, pri: pri, fn: fn}
	e.nextSeq++
	heap.Push(&e.queue, h)
	return h, nil
}

func (e *oracleEngine) cancel(h *oracleHandle) bool {
	if h == nil || h.index < 0 {
		return false
	}
	heap.Remove(&e.queue, h.index)
	h.index = -1
	h.fn = nil
	return true
}

func (e *oracleEngine) step() bool {
	if len(e.queue) == 0 {
		return false
	}
	h := heap.Pop(&e.queue).(*oracleHandle)
	h.index = -1
	e.now = h.at
	e.steps++
	fn := h.fn
	h.fn = nil
	fn()
	return true
}

func (e *oracleEngine) run(until time.Time) {
	for len(e.queue) > 0 && !e.queue[0].at.After(until) {
		e.step()
	}
	if e.now.Before(until) {
		e.now = until
	}
}

type oracleHeap []*oracleHandle

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	if h[i].pri != h[j].pri {
		return h[i].pri < h[j].pri
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *oracleHeap) Push(x any) {
	ev := x.(*oracleHandle)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// side is one engine under the differential trial plus the trace its
// events leave. Both sides get the same operations; an event's callback
// logs its id and clock, and some events schedule or cancel further
// events from inside the callback, decided by the id alone so both sides
// do the same thing.
type side struct {
	schedule func(kind int, at time.Time, d time.Duration, pri int, fn func()) error
	cancel   func(k int) bool
	step     func() bool
	run      func(until time.Time)
	now      func() time.Time
	state    func() (steps uint64, pending int)
	nextID   int
	log      []string
}

// callArg is the AfterArg callback the differential sides bind once: the
// argument is the event's own func() (pointer-shaped, so boxing it in an
// interface does not allocate).
func callArg(arg any) { arg.(func())() }

func newSide() *side {
	e := NewEngine(t0)
	var hs []Handle
	return &side{
		schedule: func(kind int, at time.Time, d time.Duration, pri int, fn func()) error {
			var h Handle
			var err error
			switch kind {
			case 0:
				h, err = e.Schedule(at, fn)
			case 1:
				h, err = e.SchedulePri(at, pri, fn)
			case 2:
				h, err = e.After(d, fn)
			default:
				h, err = e.AfterArg(d, callArg, fn)
			}
			if err == nil {
				hs = append(hs, h)
			}
			return err
		},
		cancel: func(k int) bool { return k < len(hs) && e.Cancel(hs[k]) },
		step:   e.Step,
		run:    e.Run,
		now:    e.Now,
		state:  func() (uint64, int) { return e.Steps(), e.Pending() },
	}
}

func newOracleSide() *side {
	e := &oracleEngine{now: t0}
	var hs []*oracleHandle
	return &side{
		schedule: func(kind int, at time.Time, d time.Duration, pri int, fn func()) error {
			switch kind {
			case 0:
				pri = 0
			case 2, 3: // After and AfterArg
				at, pri = e.now.Add(d), 0
			}
			h, err := e.schedulePri(at, pri, fn)
			if err == nil {
				hs = append(hs, h)
			}
			return err
		},
		cancel: func(k int) bool { return k < len(hs) && e.cancel(hs[k]) },
		step:   e.step,
		run:    e.run,
		now:    func() time.Time { return e.now },
		state:  func() (uint64, int) { return e.steps, len(e.queue) },
	}
}

// event returns a callback for a new event id.
func (s *side) event() func() {
	id := s.nextID
	s.nextID++
	return func() {
		s.log = append(s.log, fmt.Sprintf("%d@%s", id, s.now().Format(time.RFC3339Nano)))
		switch id % 7 {
		case 0: // reschedule at the current instant, behind equal events
			_ = s.schedule(1, s.now(), 0, id%3-1, s.event())
		case 3:
			_ = s.schedule(2, time.Time{}, time.Duration(id%4)*time.Second, 0, s.event())
		case 4:
			_ = s.schedule(3, time.Time{}, time.Duration(id%3)*time.Second, 0, s.event())
		case 5: // cancel some earlier event, possibly itself or a stale slot
			s.log = append(s.log, fmt.Sprintf("cancel %d: %v", id/2, s.cancel(id/2)))
		}
	}
}

// TestEngineMatchesOracle drives the value heap and the container/heap
// oracle through the same random interleavings of every operation, with
// timestamps and priorities drawn from tiny ranges so ties are the norm,
// and cancels aimed at pending, fired, cancelled and slot-reused handles.
// Firing order, Now, Steps, Pending and every Cancel result must agree.
func TestEngineMatchesOracle(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		a, b := newSide(), newOracleSide()
		checked := 0
		for op := 0; op < 400; op++ {
			var what string
			switch r := rng.Intn(10); {
			case r < 4:
				kind, pri := rng.Intn(4), rng.Intn(3)-1
				d := time.Duration(rng.Intn(4)-1) * time.Second
				if rng.Intn(8) == 0 {
					d += time.Duration(rng.Intn(3)) // sub-second ties and orderings
				}
				at := a.now().Add(d)
				ea := a.schedule(kind, at, d, pri, a.event())
				eb := b.schedule(kind, at, d, pri, b.event())
				what = fmt.Sprintf("schedule kind=%d at=%s pri=%d: err %v / %v", kind, at, pri, ea, eb)
				if (ea == nil) != (eb == nil) || ea != nil && !errors.Is(ea, ErrPastEvent) {
					t.Fatalf("trial %d op %d: %s", trial, op, what)
				}
			case r < 6:
				k := rng.Intn(a.nextID + 1)
				if rng.Intn(2) == 0 { // aim at the recent, mostly pending handles
					k = max(0, a.nextID-1-rng.Intn(12))
				}
				ca, cb := a.cancel(k), b.cancel(k)
				what = fmt.Sprintf("cancel %d: %v / %v", k, ca, cb)
				if ca != cb {
					t.Fatalf("trial %d op %d: %s", trial, op, what)
				}
			case r < 9:
				sa, sb := a.step(), b.step()
				what = fmt.Sprintf("step: %v / %v", sa, sb)
				if sa != sb {
					t.Fatalf("trial %d op %d: %s", trial, op, what)
				}
			default:
				until := a.now().Add(time.Duration(rng.Intn(3)) * time.Second)
				a.run(until)
				b.run(until)
				what = fmt.Sprintf("run until %s", until)
			}
			stA, pA := a.state()
			stB, pB := b.state()
			if !a.now().Equal(b.now()) || a.now().Location() != b.now().Location() || stA != stB || pA != pB {
				t.Fatalf("trial %d op %d after %s: now %v/%v steps %d/%d pending %d/%d",
					trial, op, what, a.now(), b.now(), stA, stB, pA, pB)
			}
			if len(a.log) != len(b.log) {
				t.Fatalf("trial %d op %d after %s: traces differ\n engine %v\n oracle %v", trial, op, what, a.log, b.log)
			}
			for ; checked < len(a.log); checked++ {
				if a.log[checked] != b.log[checked] {
					t.Fatalf("trial %d op %d after %s: trace entry %d is %q, oracle %q",
						trial, op, what, checked, a.log[checked], b.log[checked])
				}
			}
		}
	}
}

// TestScheduleStepAllocFree pins the queue's steady state: with a prebuilt
// callback, scheduling and firing an event allocate nothing.
func TestScheduleStepAllocFree(t *testing.T) {
	e := NewEngine(t0)
	fn := func() {}
	for i := 0; i < 64; i++ {
		if _, err := e.SchedulePri(t0.Add(time.Duration(i)*time.Second), i%3, fn); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := e.SchedulePri(e.Now().Add(time.Minute), 1, fn); err != nil {
			t.Fatal(err)
		}
		if !e.Step() {
			t.Fatal("empty queue")
		}
	})
	if allocs != 0 {
		t.Fatalf("SchedulePri+Step allocs = %v, want 0", allocs)
	}
}

// TestAfterArgAllocFree pins the steady state of the closure-free path:
// with the callback bound once and a pointer argument, AfterArg, Step,
// Cancel and a re-schedule allocate nothing.
func TestAfterArgAllocFree(t *testing.T) {
	e := NewEngine(t0)
	n := 0
	fn := func(arg any) { n += *arg.(*int) }
	one, nop := 1, func() {}
	for i := 0; i < 64; i++ {
		if _, err := e.AfterArg(time.Duration(i)*time.Second, fn, &one); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		h, err := e.AfterArg(time.Minute, fn, &one)
		if err != nil {
			t.Fatal(err)
		}
		if !e.Cancel(h) {
			t.Fatal("cancel of a pending event returned false")
		}
		if _, err := e.Schedule(e.Now().Add(time.Hour), nop); err != nil {
			t.Fatal(err)
		}
		if _, err := e.AfterArg(time.Minute, fn, &one); err != nil {
			t.Fatal(err)
		}
		if !e.Step() || !e.Step() {
			t.Fatal("empty queue")
		}
	})
	if allocs != 0 {
		t.Fatalf("AfterArg+Cancel+Schedule+Step allocs = %v, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("no AfterArg callback ran")
	}
}

// TestCancelAllocFree: cancelling returns the slot to the free list
// without allocating.
func TestCancelAllocFree(t *testing.T) {
	e := NewEngine(t0)
	fn := func() {}
	for i := 0; i < 64; i++ {
		if _, err := e.After(time.Duration(i)*time.Second, fn); err != nil {
			t.Fatal(err)
		}
	}
	h, err := e.After(time.Hour, fn)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if !e.Cancel(h) {
			t.Fatal("cancel of a pending event returned false")
		}
		if h, err = e.After(time.Hour, fn); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Cancel allocs = %v, want 0", allocs)
	}
}
