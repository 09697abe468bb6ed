package simclock

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine(t0)
	var order []int
	for i, offset := range []time.Duration{5 * time.Second, 1 * time.Second, 3 * time.Second} {
		i := i
		if _, err := e.Schedule(t0.Add(offset), func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	e.RunAll()
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTieBreakPriorityThenSeq(t *testing.T) {
	e := NewEngine(t0)
	at := t0.Add(time.Minute)
	var order []string
	add := func(name string, pri int) {
		if _, err := e.SchedulePri(at, pri, func() { order = append(order, name) }); err != nil {
			t.Fatal(err)
		}
	}
	add("b-pri1", 1)
	add("a-pri0-first", 0)
	add("c-pri0-second", 0)
	e.RunAll()
	want := []string{"a-pri0-first", "c-pri0-second", "b-pri1"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := NewEngine(t0)
	var seen time.Time
	_, err := e.Schedule(t0.Add(time.Hour), func() { seen = e.Now() })
	if err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if !seen.Equal(t0.Add(time.Hour)) {
		t.Fatalf("event saw clock %v", seen)
	}
	if !e.Now().Equal(t0.Add(time.Hour)) {
		t.Fatalf("final clock %v", e.Now())
	}
}

func TestSchedulePastRejected(t *testing.T) {
	e := NewEngine(t0)
	if _, err := e.Schedule(t0.Add(-time.Second), func() {}); !errors.Is(err, ErrPastEvent) {
		t.Fatalf("err = %v, want ErrPastEvent", err)
	}
}

func TestScheduleNilFnRejected(t *testing.T) {
	e := NewEngine(t0)
	if _, err := e.Schedule(t0, nil); err == nil {
		t.Fatal("nil fn accepted")
	}
	if _, err := e.AfterArg(0, nil, 1); err == nil {
		t.Fatal("nil AfterArg fn accepted")
	}
	if _, err := e.AfterArg(-time.Second, func(any) {}, 1); !errors.Is(err, ErrPastEvent) {
		t.Fatalf("AfterArg into the past: err = %v, want ErrPastEvent", err)
	}
}

func TestScheduleAtNowRuns(t *testing.T) {
	e := NewEngine(t0)
	ran := false
	if _, err := e.Schedule(t0, func() { ran = true }); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if !ran {
		t.Fatal("event at current time did not run")
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(t0)
	ran := false
	h, err := e.Schedule(t0.Add(time.Second), func() { ran = true })
	if err != nil {
		t.Fatal(err)
	}
	if !e.Cancel(h) {
		t.Fatal("first cancel returned false")
	}
	if e.Cancel(h) {
		t.Fatal("second cancel returned true")
	}
	e.RunAll()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if e.Cancel(Handle{}) {
		t.Fatal("Cancel(Handle{}) returned true")
	}
}

func TestCancelFiredEvent(t *testing.T) {
	e := NewEngine(t0)
	h, err := e.Schedule(t0.Add(time.Second), func() {})
	if err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if e.Cancel(h) {
		t.Fatal("cancel after fire returned true")
	}
}

func TestRunUntilStopsAndAdvancesClock(t *testing.T) {
	e := NewEngine(t0)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Minute, time.Hour, 2 * time.Hour} {
		d := d
		if _, err := e.Schedule(t0.Add(d), func() { fired = append(fired, d) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Run(t0.Add(90 * time.Minute))
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if !e.Now().Equal(t0.Add(90 * time.Minute)) {
		t.Fatalf("clock = %v", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	e := NewEngine(t0)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			if _, err := e.After(time.Second, tick); err != nil {
				t.Error(err)
			}
		}
	}
	if _, err := e.After(time.Second, tick); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if count != 10 {
		t.Fatalf("count = %d", count)
	}
	if !e.Now().Equal(t0.Add(10 * time.Second)) {
		t.Fatalf("clock = %v", e.Now())
	}
	if e.Steps() != 10 {
		t.Fatalf("steps = %d", e.Steps())
	}
}

// Property: for any set of offsets, events fire in nondecreasing time order.
func TestPropertyMonotonicFiring(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine(t0)
		var last time.Time
		ok := true
		for _, off := range offsets {
			at := t0.Add(time.Duration(off) * time.Second)
			if _, err := e.Schedule(at, func() {
				if e.Now().Before(last) {
					ok = false
				}
				last = e.Now()
			}); err != nil {
				return false
			}
		}
		e.RunAll()
		return ok && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
