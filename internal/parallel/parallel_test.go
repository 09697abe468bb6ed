package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestResolve(t *testing.T) {
	if got := Resolve(4); got != 4 {
		t.Fatalf("Resolve(4) = %d", got)
	}
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(0) = %d, want GOMAXPROCS", got)
	}
	if got := Resolve(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(-3) = %d, want GOMAXPROCS", got)
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		var hits [n]atomic.Int32
		err := ForEach(n, workers, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, hits[i].Load())
			}
		}
	}
}

func TestForEachZeroAndEmpty(t *testing.T) {
	if err := ForEach(0, 8, func(int) error { return errors.New("no") }); err != nil {
		t.Fatal(err)
	}
}

// The lowest-index error must win regardless of worker count, matching what
// a sequential loop would return.
func TestForEachDeterministicError(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		err := ForEach(100, workers, func(i int) error {
			if i == 7 || i == 40 || i == 99 {
				return fmt.Errorf("fail@%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail@7" {
			t.Fatalf("workers=%d: err = %v, want fail@7", workers, err)
		}
	}
}

func TestMapOrdered(t *testing.T) {
	in := make([]int, 500)
	for i := range in {
		in[i] = i
	}
	for _, workers := range []int{1, 4, 32} {
		out, err := Map(in, workers, func(v int) (int, error) { return v * v, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapError(t *testing.T) {
	_, err := Map([]int{1, 2, 3}, 2, func(v int) (int, error) {
		if v == 2 {
			return 0, errors.New("boom")
		}
		return v, nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
}

func TestOrderedPreservesSubmissionOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		o := NewOrdered[int, int](workers, 4, nil, func(v int) (int, error) { return v + 1, nil })
		const n = 2000
		go func() {
			for i := 0; i < n; i++ {
				if !o.Submit(i) {
					break
				}
			}
			o.CloseSubmit()
		}()
		for i := 0; i < n; i++ {
			v, ok, err := o.Next()
			if !ok || err != nil {
				t.Fatalf("workers=%d: Next() = %v %v %v at %d", workers, v, ok, err, i)
			}
			if v != i+1 {
				t.Fatalf("workers=%d: out of order: got %d at position %d", workers, v, i)
			}
		}
		if _, ok, _ := o.Next(); ok {
			t.Fatalf("workers=%d: extra result", workers)
		}
	}
}

func TestOrderedWorkerErrorSurfaces(t *testing.T) {
	o := NewOrdered[int, int](4, 4, nil, func(v int) (int, error) {
		if v == 5 {
			return 0, errors.New("worker failed")
		}
		return v, nil
	})
	go func() {
		for i := 0; i < 10; i++ {
			if !o.Submit(i) {
				break
			}
		}
		o.CloseSubmit()
	}()
	sawErr := false
	for {
		_, ok, err := o.Next()
		if !ok {
			break
		}
		if err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("worker error never surfaced")
	}
}

// An aborting consumer must unblock a producer stuck on a full pool and
// still be able to drain cleanly.
func TestOrderedAbortUnblocksProducer(t *testing.T) {
	o := NewOrdered[int, int](2, 2, nil, func(v int) (int, error) { return v, nil })
	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		for i := 0; ; i++ {
			if !o.Submit(i) {
				o.CloseSubmit()
				return
			}
		}
	}()
	// Consume a few, then abort mid-stream.
	for i := 0; i < 3; i++ {
		if _, ok, err := o.Next(); !ok || err != nil {
			t.Fatalf("early Next failed: %v %v", ok, err)
		}
	}
	o.Abort()
	for {
		if _, ok, _ := o.Next(); !ok {
			break
		}
	}
	<-prodDone // must not deadlock
}

// meterRecorder is a race-safe WorkerMeter for tests.
type meterRecorder struct {
	mu    sync.Mutex
	calls map[int]int // worker -> observations
}

func newMeterRecorder() *meterRecorder {
	return &meterRecorder{calls: make(map[int]int)}
}

func (m *meterRecorder) observe(w int, d time.Duration) {
	if d < 0 {
		panic("negative duration")
	}
	m.mu.Lock()
	m.calls[w]++
	m.mu.Unlock()
}

func (m *meterRecorder) total() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, c := range m.calls {
		n += c
	}
	return n
}

// TestForEachMeterObservesEveryItem checks one meter observation per work
// item, attributed to worker ids inside [0, workers).
func TestForEachMeterObservesEveryItem(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		rec := newMeterRecorder()
		var ran atomic.Int64
		err := ForEachMeter(20, workers, rec.observe, func(i int) error {
			ran.Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if ran.Load() != 20 {
			t.Fatalf("workers=%d: ran %d items", workers, ran.Load())
		}
		if rec.total() != 20 {
			t.Fatalf("workers=%d: meter saw %d observations, want 20", workers, rec.total())
		}
		for w := range rec.calls {
			if w < 0 || w >= workers {
				t.Fatalf("workers=%d: observation for out-of-range worker %d", workers, w)
			}
		}
	}
}

// TestForEachMeterNilMeter ensures a nil meter takes the plain path.
func TestForEachMeterNilMeter(t *testing.T) {
	var ran atomic.Int64
	if err := ForEachMeter(10, 4, nil, func(i int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 10 {
		t.Fatalf("ran %d items", ran.Load())
	}
}

// TestOrderedMeterObservesEveryItem does the same for the streaming pool.
func TestOrderedMeterObservesEveryItem(t *testing.T) {
	rec := newMeterRecorder()
	pool := NewOrdered(3, 6, rec.observe, func(x int) (int, error) { return x * x, nil })
	go func() {
		defer pool.CloseSubmit()
		for i := 0; i < 25; i++ {
			pool.Submit(i)
		}
	}()
	for i := 0; ; i++ {
		got, ok, err := pool.Next()
		if !ok {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if got != i*i {
			t.Fatalf("result %d = %d, want %d", i, got, i*i)
		}
	}
	if rec.total() != 25 {
		t.Fatalf("meter saw %d observations, want 25", rec.total())
	}
	for w := range rec.calls {
		if w < 0 || w >= 3 {
			t.Fatalf("observation for out-of-range worker %d", w)
		}
	}
}
