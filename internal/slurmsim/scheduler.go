package slurmsim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"time"

	"gpuresilience/internal/simclock"
)

// Config parameterizes the scheduler.
type Config struct {
	// GPUsPerNode is the allocation granularity (4 on Delta's 4-way nodes;
	// the six 8-way nodes are modeled as additional hosts with 8).
	GPUsPerNode int
	// ScanLimit bounds how many pending jobs one scheduling pass examines
	// (backfill-style: jobs behind an unschedulable head may still start).
	ScanLimit int
	// MaxQueueWait cancels jobs that sit pending longer than this. Zero
	// disables cancellation.
	MaxQueueWait time.Duration
	// ReserveAfter turns scheduling strictly FIFO behind a job that has
	// waited this long: no later job may jump it, so freed capacity
	// accumulates until the wide job fits (poor man's reservation). Zero
	// disables reservations.
	ReserveAfter time.Duration
	// RequeueOnNodeFail resubmits a fresh copy of every job killed by a
	// node failure (Slurm's --requeue behavior). The killed attempt keeps
	// its NODE_FAIL record; the copy restarts from scratch. Off by default:
	// the study counts each attempt as its own record.
	RequeueOnNodeFail bool
}

// DefaultConfig returns scheduler settings matching Delta's A100 partition.
func DefaultConfig() Config {
	return Config{
		GPUsPerNode:  4,
		ScanLimit:    4000,
		MaxQueueWait: 30 * 24 * time.Hour,
		ReserveAfter: 6 * time.Hour,
	}
}

type host struct {
	name        string
	pos         int // index in Scheduler.hosts, the bit in the level sets
	numGPUs     int
	free        []bool // free[i] == true when GPU i is unallocated
	freeCount   int
	schedulable bool // accepting new work (false while draining or down)
	online      bool // false while rebooting/failed
	running     map[int]*Job
	// alone holds the interned placements that lie on this host alone, by
	// GPU mask; nil until the first one, and for hosts of more than
	// maxMaskGPUs GPUs.
	alone []*Placement
}

// maxMaskGPUs bounds the hosts whose single-host placements tryPlace finds
// by GPU mask (host.alone): 2^maxMaskGPUs slots per host.
const maxMaskGPUs = 8

// Scheduler places jobs on hosts and tracks their lifecycle.
type Scheduler struct {
	cfg    Config
	engine *simclock.Engine

	hosts     []*host // in ascending name order, the placement scan order
	hostIndex map[string]*host

	// freeTotal is FreeGPUs: the free GPUs of schedulable online hosts.
	// levels holds one bitset over host positions per free count c in
	// [1, top], words uint64s each, at levels[c*words:]: the schedulable
	// online hosts with exactly c free GPUs. unlist and relist keep both
	// current.
	freeTotal int
	levels    []uint64
	words     int
	top       int // the most GPUs on any host

	pending  []*Job
	records  []*Job
	nextID   int32
	capacity int // total GPUs across all hosts

	// places interns the placements jobs start with; tryPlace builds each
	// candidate in placeBuf and idxBuf, reused across calls.
	places   *placeTable
	placeBuf Placement
	idxBuf   []int

	passQueued bool
	passFn     func()    // s.pass, bound once so queuePass does not allocate
	endFn      func(any) // ends the *Job argument naturally, bound once

	// OnTerminal, if set, is called once per job when it reaches a terminal
	// state.
	OnTerminal func(*Job)

	endHandles map[int32]simclock.Handle // by job ID
}

// NewScheduler returns a scheduler driven by engine.
func NewScheduler(cfg Config, engine *simclock.Engine) (*Scheduler, error) {
	if engine == nil {
		return nil, errors.New("slurmsim: nil engine")
	}
	if cfg.GPUsPerNode <= 0 {
		return nil, errors.New("slurmsim: GPUsPerNode must be positive")
	}
	if cfg.ScanLimit <= 0 {
		cfg.ScanLimit = 4000
	}
	s := &Scheduler{
		cfg:        cfg,
		engine:     engine,
		hostIndex:  make(map[string]*host),
		nextID:     1,
		endHandles: make(map[int32]simclock.Handle),
		places:     newPlaceTable(),
	}
	s.passFn = s.pass
	s.endFn = func(j any) { s.naturalEnd(j.(*Job)) }
	return s, nil
}

// AddHost registers a node with the given GPU count. Placement breaks ties
// by host name, so registration order does not matter.
func (s *Scheduler) AddHost(name string, gpus int) error {
	if _, dup := s.hostIndex[name]; dup {
		return fmt.Errorf("slurmsim: duplicate host %q", name)
	}
	if gpus <= 0 {
		return fmt.Errorf("slurmsim: host %q has no GPUs", name)
	}
	h := &host{
		name:        name,
		numGPUs:     gpus,
		free:        make([]bool, gpus),
		freeCount:   gpus,
		schedulable: true,
		online:      true,
		running:     make(map[int]*Job),
	}
	for i := range h.free {
		h.free[i] = true
	}
	at, _ := slices.BinarySearchFunc(s.hosts, name, func(h *host, name string) int {
		return strings.Compare(h.name, name)
	})
	s.hosts = slices.Insert(s.hosts, at, h)
	s.hostIndex[name] = h
	s.capacity += gpus
	s.reindex()
	return nil
}

// reindex renumbers host positions and rebuilds the free-GPU total and the
// level sets from the hosts' own state.
func (s *Scheduler) reindex() {
	s.top = 0
	for _, h := range s.hosts {
		s.top = max(s.top, h.numGPUs)
	}
	s.words = (len(s.hosts) + 63) / 64
	n := (s.top + 1) * s.words
	s.levels = slices.Grow(s.levels[:0], n)[:n]
	clear(s.levels)
	s.freeTotal = 0
	for i, h := range s.hosts {
		h.pos = i
		s.relist(h)
	}
}

// unlist takes h out of the free-GPU total and its level set before its
// free count or flags change; relist puts it back after.
func (s *Scheduler) unlist(h *host) {
	if h.schedulable && h.online {
		s.freeTotal -= h.freeCount
		if h.freeCount > 0 {
			s.levels[h.freeCount*s.words+h.pos/64] &^= 1 << (h.pos % 64)
		}
	}
}

// relist is unlist's inverse; see unlist.
func (s *Scheduler) relist(h *host) {
	if h.schedulable && h.online {
		s.freeTotal += h.freeCount
		if h.freeCount > 0 {
			s.levels[h.freeCount*s.words+h.pos/64] |= 1 << (h.pos % 64)
		}
	}
}

// Grow reserves room for n more terminal records, so a caller that knows
// its population size keeps Records from regrowing.
func (s *Scheduler) Grow(n int) { s.records = slices.Grow(s.records, n) }

// Submit enqueues a job at the current simulation time and assigns its ID.
// It rejects a job once the int32 ID space is spent, or when the simulation
// clock lies outside the record's [MinTime, MaxTime].
func (s *Scheduler) Submit(j *Job) error {
	if j == nil {
		return errors.New("slurmsim: nil job")
	}
	if j.GPUs <= 0 {
		return fmt.Errorf("slurmsim: job %q requests %d GPUs", j.Name(), j.GPUs)
	}
	if s.nextID == math.MaxInt32 {
		return errors.New("slurmsim: job IDs exhausted")
	}
	now := s.engine.Now()
	if !InRange(now) {
		return fmt.Errorf("slurmsim: submit time %v outside [%v, %v]", now, MinTime.Time(), MaxTime.Time())
	}
	j.ID = s.nextID
	s.nextID++
	j.Submit = At(now)
	if int(j.GPUs) > s.capacity {
		// Slurm rejects requests exceeding partition capacity outright.
		j.State = StateCancelled
		j.End = j.Submit
		s.finish(j)
		return nil
	}
	j.State = StatePending
	s.pending = append(s.pending, j)
	s.queuePass()
	return nil
}

// queuePass schedules one scheduling pass at the current timestamp (after
// all same-time events, so a burst of frees is handled by one pass).
func (s *Scheduler) queuePass() {
	if s.passQueued {
		return
	}
	s.passQueued = true
	// Priority 100 sorts the pass after same-time submissions and frees.
	if _, err := s.engine.SchedulePri(s.engine.Now(), 100, s.passFn); err != nil {
		s.passQueued = false
	}
}

// pass scans the pending queue first-fit (bounded backfill) and starts every
// job that can be placed now. It exits early once free capacity is exhausted
// and switches to strict FIFO behind a long-waiting job (reservation).
func (s *Scheduler) pass() {
	s.passQueued = false
	now := At(s.engine.Now())
	totalFree := s.FreeGPUs()
	kept := s.pending[:0]
	scanned := 0
	for qi, j := range s.pending {
		if scanned >= s.cfg.ScanLimit || totalFree == 0 {
			kept = append(kept, s.pending[qi:]...)
			break
		}
		scanned++
		if s.cfg.MaxQueueWait > 0 && now.Sub(j.Submit) > s.cfg.MaxQueueWait {
			j.State = StateCancelled
			j.End = now
			j.ExitCode = 0
			s.finish(j)
			continue
		}
		if int(j.GPUs) > totalFree {
			kept = append(kept, j)
			if s.cfg.ReserveAfter > 0 && now.Sub(j.Submit) > s.cfg.ReserveAfter {
				// Reservation: hold remaining capacity for this job.
				kept = append(kept, s.pending[qi+1:]...)
				break
			}
			continue
		}
		place := s.tryPlace(int(j.GPUs))
		if place == nil {
			kept = append(kept, j)
			continue
		}
		totalFree -= int(j.GPUs)
		s.start(j, place, now)
	}
	s.pending = kept
}

// tryPlace finds GPUs for a job, preferring the fullest-fitting hosts
// (best-fit decreasing over free counts, ties by name) so whole nodes stay
// available for wide jobs. Hosts are visited level by level, from the
// fullest free count down, each level's set in name order. The placement
// is built in scratch, sorted into name order and interned, so a placement
// seen before allocates nothing. Returns nil when capacity is insufficient
// right now.
func (s *Scheduler) tryPlace(gpus int) *Placement {
	if s.freeTotal < gpus {
		return nil
	}
	buf := s.placeBuf[:0]
	idxBuf := slices.Grow(s.idxBuf[:0], gpus)[:gpus]
	s.idxBuf = idxBuf
	need := gpus
	var h *host
	mask := 0 // the GPUs taken on h
	for level := s.top; level > 0 && need > 0; level-- {
		for w, set := range s.levels[level*s.words : (level+1)*s.words] {
			for ; set != 0 && need > 0; set &= set - 1 {
				h = s.hosts[w*64+bits.TrailingZeros64(set)]
				take := min(level, need)
				idxs := idxBuf[:0:take]
				idxBuf = idxBuf[take:]
				mask = 0
				for i := 0; i < h.numGPUs && len(idxs) < take; i++ {
					if h.free[i] {
						idxs = append(idxs, i)
						mask |= 1 << i
					}
				}
				buf = append(buf, NodeGPUs{Node: h.name, GPUs: idxs})
				need -= take
			}
		}
	}
	s.placeBuf = buf
	// Most jobs fit on one host. Finding their placements by GPU mask skips
	// the table's encoding, hash and check, which at scale 1.0 cost more
	// CPU than the rest of tryPlace.
	if len(buf) == 1 && h.numGPUs <= maxMaskGPUs {
		if h.alone == nil {
			h.alone = make([]*Placement, 1<<h.numGPUs)
		}
		if h.alone[mask] == nil {
			h.alone[mask] = s.places.intern(buf)
		}
		return h.alone[mask]
	}
	slices.SortFunc(buf, compareNode)
	return s.places.intern(buf)
}

// start allocates the placement and schedules the job's natural end.
func (s *Scheduler) start(j *Job, place *Placement, now Time) {
	for _, e := range place.Nodes() {
		h := s.hostIndex[e.Node]
		s.unlist(h)
		for _, i := range e.GPUs {
			h.free[i] = false
			h.running[i] = j
		}
		h.freeCount -= len(e.GPUs)
		s.relist(h)
	}
	j.Place = place
	j.Start = now
	j.State = StateRunning

	run := j.RunDuration
	if timedOut(j) {
		run = j.TimeLimit
	}
	h, err := s.engine.AfterArg(run, s.endFn, j)
	if err == nil {
		s.endHandles[j.ID] = h
	}
}

// timedOut reports whether the job, left alone, hits its time limit before
// its natural end.
func timedOut(j *Job) bool { return j.TimeLimit > 0 && j.RunDuration > j.TimeLimit }

func (s *Scheduler) naturalEnd(j *Job) {
	delete(s.endHandles, j.ID)
	switch {
	case timedOut(j):
		j.State = StateTimeout
		j.ExitCode = 0
	case j.FailNaturally:
		j.State = StateFailed
		j.ExitCode = int32(j.NaturalExitCode)
		if j.ExitCode == 0 {
			j.ExitCode = 1
		}
	default:
		j.State = StateCompleted
		j.ExitCode = 0
	}
	j.End = At(s.engine.Now())
	s.release(j)
	s.finish(j)
	s.queuePass()
}

// release frees the job's GPUs on hosts that are still online.
func (s *Scheduler) release(j *Job) {
	for _, e := range j.Place.Nodes() {
		h := s.hostIndex[e.Node]
		if h == nil {
			continue
		}
		s.unlist(h)
		for _, i := range e.GPUs {
			if h.running[i] == j {
				delete(h.running, i)
				if !h.free[i] {
					h.free[i] = true
					h.freeCount++
				}
			}
		}
		s.relist(h)
	}
}

func (s *Scheduler) finish(j *Job) {
	s.records = append(s.records, j)
	if s.OnTerminal != nil {
		s.OnTerminal(j)
	}
}

// Kill terminates a running job with the given state and exit code at the
// current simulation time (used for GPU-error and node-failure kills).
// It is a no-op on non-running jobs.
func (s *Scheduler) Kill(j *Job, state JobState, exitCode int32) {
	if j == nil || j.State != StateRunning {
		return
	}
	if h, ok := s.endHandles[j.ID]; ok {
		s.engine.Cancel(h)
		delete(s.endHandles, j.ID)
	}
	j.State = state
	j.ExitCode = exitCode
	j.End = At(s.engine.Now())
	s.release(j)
	s.finish(j)
	if state == StateNodeFail && s.cfg.RequeueOnNodeFail {
		clone := &Job{
			Text:            j.Text,
			GPUs:            j.GPUs,
			TimeLimit:       j.TimeLimit,
			RunDuration:     j.RunDuration,
			FailNaturally:   j.FailNaturally,
			NaturalExitCode: j.NaturalExitCode,
			ML:              j.ML,
		}
		// Submit assigns a fresh ID and submit time; requeued work starts
		// from scratch (no checkpoint).
		_ = s.Submit(clone)
	}
	s.queuePass()
}

// JobsOnNode returns the distinct jobs currently running on the node.
func (s *Scheduler) JobsOnNode(node string) []*Job {
	h := s.hostIndex[node]
	if h == nil {
		return nil
	}
	seen := make(map[int32]*Job, len(h.running))
	for _, j := range h.running {
		seen[j.ID] = j
	}
	out := make([]*Job, 0, len(seen))
	for _, j := range seen {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// JobOnGPU returns the job running on (node, gpu), or nil.
func (s *Scheduler) JobOnGPU(node string, gpu int) *Job {
	h := s.hostIndex[node]
	if h == nil {
		return nil
	}
	return h.running[gpu]
}

// SetSchedulable marks a node as (not) accepting new jobs; running jobs are
// unaffected. Used at drain start/end.
func (s *Scheduler) SetSchedulable(node string, ok bool) {
	if h := s.hostIndex[node]; h != nil {
		s.unlist(h)
		h.schedulable = ok
		s.relist(h)
		if ok {
			s.queuePass()
		}
	}
}

// FailNode takes a node offline (reboot/hardware failure): every running job
// on it is killed with NODE_FAIL and the node stops hosting work.
func (s *Scheduler) FailNode(node string) {
	h := s.hostIndex[node]
	if h == nil {
		return
	}
	s.unlist(h) // until RestoreNode relists it
	h.online = false
	h.schedulable = false
	for _, j := range s.JobsOnNode(node) {
		s.Kill(j, StateNodeFail, 1)
	}
}

// RestoreNode brings a node back online with all GPUs free.
func (s *Scheduler) RestoreNode(node string) {
	h := s.hostIndex[node]
	if h == nil {
		return
	}
	s.unlist(h)
	h.online = true
	h.schedulable = true
	for i := range h.free {
		if h.running[i] == nil && !h.free[i] {
			h.free[i] = true
			h.freeCount++
		}
	}
	s.relist(h)
	s.queuePass()
}

// PendingCount returns the pending-queue length.
func (s *Scheduler) PendingCount() int { return len(s.pending) }

// RunningCount returns the number of distinct running jobs.
func (s *Scheduler) RunningCount() int { return len(s.endHandles) }

// Records returns the terminal job records accumulated so far. The returned
// slice is shared; callers must not mutate it.
func (s *Scheduler) Records() []*Job { return s.records }

// FreeGPUs returns the number of free GPUs on schedulable online hosts.
func (s *Scheduler) FreeGPUs() int { return s.freeTotal }

// DrainPending cancels every still-pending job (end of measurement period).
func (s *Scheduler) DrainPending() {
	now := At(s.engine.Now())
	for _, j := range s.pending {
		j.State = StateCancelled
		j.End = now
		s.finish(j)
	}
	s.pending = nil
}
