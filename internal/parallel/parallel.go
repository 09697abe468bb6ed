// Package parallel provides the bounded-concurrency primitives behind the
// sharded pipeline: a parallel index loop with deterministic error
// selection, an ordered map, and a streaming worker pool whose results come
// back in submission order (ordered fan-in).
//
// Every construct is worker-count-invariant by design: given the same
// inputs, results are identical whether the work ran on one goroutine or
// sixteen. That property is what lets the pipeline guarantee byte-identical
// Table I/II/III output at any -workers setting (see docs/pipeline.md).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// WorkerMeter observes one worker's completion of one work item: w is the
// worker index (0-based, stable for the pool's lifetime) and busy is the
// time the item spent in the worker's transform. A nil meter disables
// metering entirely — the metered constructors then run the exact unmetered
// code path, so instrumentation is zero-cost when off. obs.Span's
// ObserveWorker method satisfies this signature.
type WorkerMeter func(w int, busy time.Duration)

// Resolve returns the effective worker count: n when positive, otherwise
// GOMAXPROCS. Pipeline options treat 0 as "use every core" and 1 as "force
// the sequential path".
func Resolve(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// and waits for all started calls to finish. When several calls fail, the
// error of the lowest index is returned — the same error a sequential loop
// would have hit first — so error behavior is deterministic regardless of
// scheduling. After a failure, unstarted indices are skipped.
func ForEach(n, workers int, fn func(i int) error) error {
	return ForEachMeter(n, workers, nil, fn)
}

// ForEachMeter is ForEach with per-worker instrumentation: when meter is
// non-nil, every fn(i) call is timed and reported against the worker that
// ran it (the sequential path reports worker 0). A nil meter takes the
// unmetered path.
func ForEachMeter(n, workers int, meter WorkerMeter, fn func(i int) error) error {
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if n <= 0 {
		return nil
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := timedCall(meter, 0, i, fn); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errIdx = n   // guarded by mu
		first  error // guarded by mu; wg.Wait() orders the final read
		wg     sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || failed.Load() {
					return
				}
				if err := timedCall(meter, w, i, fn); err != nil {
					failed.Store(true)
					mu.Lock()
					if i < errIdx {
						errIdx, first = i, err
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	//lint:allow lockguard wg.Wait() above happens-after every worker's mu-guarded write
	return first
}

// timedCall runs fn(i), reporting its duration to meter when metering is on.
func timedCall(meter WorkerMeter, w, i int, fn func(i int) error) error {
	if meter == nil {
		return fn(i)
	}
	start := time.Now() //lint:allow determinism per-item busy metering measures real elapsed time
	err := fn(i)
	meter(w, time.Since(start)) //lint:allow determinism per-item busy metering measures real elapsed time
	return err
}

// Map applies fn to every item on at most workers goroutines and returns
// the results in input order. On error the lowest-index failure wins (see
// ForEach) and the partial results are discarded.
func Map[T, R any](items []T, workers int, fn func(T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	err := ForEach(len(items), workers, func(i int) error {
		r, err := fn(items[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// result carries one worker output.
type result[R any] struct {
	val R
	err error
}

// job pairs an input with the slot its result must land in.
type job[T, R any] struct {
	item T
	out  chan result[R]
}

// Ordered is a streaming worker pool with ordered fan-in: a producer
// Submits items, workers transform them concurrently, and the consumer
// receives results strictly in submission order — the property the sharded
// log extractor relies on to keep parallel output identical to a
// sequential scan. Producer and consumer must run on different goroutines;
// at most depth submissions may be outstanding before Submit blocks.
type Ordered[T, R any] struct {
	work      chan job[T, R]
	pending   chan chan result[R]
	abort     chan struct{}
	abortOnce sync.Once
}

// NewOrdered starts a pool of workers running fn. depth bounds the number
// of in-flight items (it is raised to the worker count when smaller). When
// meter is non-nil, each item's transform is timed and reported against the
// worker that ran it; a nil meter starts the exact unmetered workers.
func NewOrdered[T, R any](workers, depth int, meter WorkerMeter, fn func(T) (R, error)) *Ordered[T, R] {
	workers = Resolve(workers)
	if depth < workers {
		depth = workers
	}
	o := &Ordered[T, R]{
		work:    make(chan job[T, R], depth),
		pending: make(chan chan result[R], depth),
		abort:   make(chan struct{}),
	}
	for w := 0; w < workers; w++ {
		run := fn
		if meter != nil {
			run = func(item T) (R, error) {
				start := time.Now() //lint:allow determinism per-item busy metering measures real elapsed time
				v, err := fn(item)
				meter(w, time.Since(start)) //lint:allow determinism per-item busy metering measures real elapsed time
				return v, err
			}
		}
		go func() {
			for j := range o.work {
				v, err := run(j.item)
				j.out <- result[R]{val: v, err: err}
			}
		}()
	}
	return o
}

// Submit queues one item. It reports false when the pool was aborted, at
// which point the producer should stop and call CloseSubmit.
func (o *Ordered[T, R]) Submit(item T) bool {
	out := make(chan result[R], 1)
	select {
	case o.pending <- out:
	case <-o.abort:
		return false
	}
	select {
	case o.work <- job[T, R]{item: item, out: out}:
		return true
	case <-o.abort:
		out <- result[R]{} // keep the consumer's drain from blocking
		return false
	}
}

// CloseSubmit marks the end of input. The consumer's Next drains the
// remaining in-flight results and then reports done. Must be called
// exactly once, by the producer.
func (o *Ordered[T, R]) CloseSubmit() {
	close(o.work)
	close(o.pending)
}

// Next returns the next result in submission order; ok is false once all
// submitted items have been consumed after CloseSubmit.
func (o *Ordered[T, R]) Next() (R, bool, error) {
	out, ok := <-o.pending
	if !ok {
		var zero R
		return zero, false, nil
	}
	r := <-out
	return r.val, true, r.err
}

// Abort releases a blocked producer after the consumer stops early (e.g.
// its callback failed). The consumer must still drain Next until done so
// workers can finish. Safe to call multiple times.
func (o *Ordered[T, R]) Abort() {
	o.abortOnce.Do(func() { close(o.abort) })
}
