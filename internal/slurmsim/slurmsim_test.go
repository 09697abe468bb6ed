package slurmsim

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"gpuresilience/internal/simclock"
)

var t0 = time.Date(2022, 10, 1, 0, 0, 0, 0, time.UTC)

func newSched(t *testing.T, hosts int) (*Scheduler, *simclock.Engine) {
	t.Helper()
	eng := simclock.NewEngine(t0)
	s, err := NewScheduler(DefaultConfig(), eng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hosts; i++ {
		name := "gpub00" + string(rune('1'+i))
		if err := s.AddHost(name, 4); err != nil {
			t.Fatal(err)
		}
	}
	return s, eng
}

func job(gpus int, run time.Duration) *Job {
	return &Job{Text: &JobText{Name: "test", User: "u1", Partition: "gpuA100x4"}, GPUs: int32(gpus),
		RunDuration: run, TimeLimit: 48 * time.Hour}
}

func TestSingleJobLifecycle(t *testing.T) {
	s, eng := newSched(t, 1)
	j := job(2, time.Hour)
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if j.State != StateCompleted || j.ExitCode != 0 {
		t.Fatalf("job = %s exit %d", j.State, j.ExitCode)
	}
	if j.Start != At(t0) || j.End != At(t0.Add(time.Hour)) {
		t.Fatalf("start=%v end=%v", j.Start, j.End)
	}
	if j.GPUHours() != 2 {
		t.Fatalf("gpu hours = %v", j.GPUHours())
	}
	if len(s.Records()) != 1 {
		t.Fatalf("records = %d", len(s.Records()))
	}
}

func TestNaturalFailure(t *testing.T) {
	s, eng := newSched(t, 1)
	j := job(1, time.Minute)
	j.FailNaturally = true
	j.NaturalExitCode = 9
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if j.State != StateFailed || j.ExitCode != 9 {
		t.Fatalf("job = %s exit %d", j.State, j.ExitCode)
	}
	if j.State.Succeeded() {
		t.Fatal("failed state counted as success")
	}
}

func TestTimeout(t *testing.T) {
	s, eng := newSched(t, 1)
	j := job(1, 100*time.Hour)
	j.TimeLimit = 48 * time.Hour
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if j.State != StateTimeout {
		t.Fatalf("state = %s", j.State)
	}
	if got := j.Elapsed(); got != 48*time.Hour {
		t.Fatalf("elapsed = %v", got)
	}
}

func TestQueueingWhenFull(t *testing.T) {
	s, eng := newSched(t, 1) // 4 GPUs
	first := job(4, 2*time.Hour)
	second := job(4, time.Hour)
	if err := s.Submit(first); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(second); err != nil {
		t.Fatal(err)
	}
	eng.Run(t0.Add(time.Minute))
	if first.State != StateRunning {
		t.Fatalf("first = %s", first.State)
	}
	if second.State != StatePending {
		t.Fatalf("second = %s", second.State)
	}
	if s.PendingCount() != 1 || s.RunningCount() != 1 || s.FreeGPUs() != 0 {
		t.Fatalf("pending=%d running=%d free=%d", s.PendingCount(), s.RunningCount(), s.FreeGPUs())
	}
	eng.RunAll()
	if second.State != StateCompleted {
		t.Fatalf("second = %s", second.State)
	}
	if second.Start != At(t0.Add(2*time.Hour)) {
		t.Fatalf("second start = %v", second.Start)
	}
}

func TestBackfillSkipsWideHeadOfLine(t *testing.T) {
	s, eng := newSched(t, 2) // 8 GPUs total
	blocker := job(6, time.Hour)
	wide := job(8, time.Hour)   // cannot start while blocker runs
	narrow := job(2, time.Hour) // fits alongside blocker
	for _, j := range []*Job{blocker, wide, narrow} {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run(t0.Add(time.Second))
	if blocker.State != StateRunning || narrow.State != StateRunning {
		t.Fatalf("blocker=%s narrow=%s", blocker.State, narrow.State)
	}
	if wide.State != StatePending {
		t.Fatalf("wide = %s", wide.State)
	}
	eng.RunAll()
	if wide.State != StateCompleted {
		t.Fatalf("wide = %s", wide.State)
	}
}

func TestMultiNodePlacement(t *testing.T) {
	s, eng := newSched(t, 3)
	j := job(10, time.Hour)
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.Run(t0.Add(time.Second))
	if j.State != StateRunning {
		t.Fatalf("state = %s", j.State)
	}
	if j.Place.Nodes().TotalGPUs() != 10 || len(j.Place.Nodes()) != 3 {
		t.Fatalf("placement = %v", j.Place)
	}
	eng.RunAll()
}

func TestKillByGPUError(t *testing.T) {
	s, eng := newSched(t, 1)
	j := job(2, 10*time.Hour)
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.Run(t0.Add(time.Hour))
	victim := s.JobOnGPU("gpub001", j.Place.Nodes()[0].GPUs[0])
	if victim != j {
		t.Fatal("JobOnGPU did not find the job")
	}
	s.Kill(j, StateNodeFail, 1)
	if j.State != StateNodeFail || j.End != At(t0.Add(time.Hour)) {
		t.Fatalf("job = %s end %v", j.State, j.End)
	}
	// Freed GPUs are reusable.
	if s.FreeGPUs() != 4 {
		t.Fatalf("free = %d", s.FreeGPUs())
	}
	// Killing again is a no-op.
	s.Kill(j, StateFailed, 2)
	if j.State != StateNodeFail {
		t.Fatal("double kill changed state")
	}
	eng.RunAll()
}

func TestFailNodeKillsAndRestoreRecovers(t *testing.T) {
	s, eng := newSched(t, 2)
	a := job(4, 10*time.Hour)
	b := job(4, 10*time.Hour)
	for _, j := range []*Job{a, b} {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run(t0.Add(time.Minute))
	nodeA := a.Place.Nodes()[0].Node
	s.FailNode(nodeA)
	if a.State != StateNodeFail {
		t.Fatalf("a = %s", a.State)
	}
	if b.State != StateRunning {
		t.Fatalf("b = %s (other node should be unaffected)", b.State)
	}
	// Node offline: a queued job cannot land there.
	c := job(4, time.Hour)
	if err := s.Submit(c); err != nil {
		t.Fatal(err)
	}
	eng.Run(t0.Add(2 * time.Minute))
	if c.State != StatePending {
		t.Fatalf("c = %s, want PENDING while node down", c.State)
	}
	s.RestoreNode(nodeA)
	eng.Run(t0.Add(3 * time.Minute))
	if c.State != StateRunning {
		t.Fatalf("c = %s after restore", c.State)
	}
	eng.RunAll()
}

func TestSetSchedulableDrain(t *testing.T) {
	s, eng := newSched(t, 1)
	a := job(1, 5*time.Hour)
	if err := s.Submit(a); err != nil {
		t.Fatal(err)
	}
	eng.Run(t0.Add(time.Minute))
	s.SetSchedulable("gpub001", false)
	if a.State != StateRunning {
		t.Fatal("drain killed a running job")
	}
	b := job(1, time.Hour)
	if err := s.Submit(b); err != nil {
		t.Fatal(err)
	}
	eng.Run(t0.Add(time.Hour))
	if b.State != StatePending {
		t.Fatalf("b = %s on draining node", b.State)
	}
	s.SetSchedulable("gpub001", true)
	eng.RunAll()
	if b.State != StateCompleted {
		t.Fatalf("b = %s", b.State)
	}
}

func TestReservationUnblocksWideJob(t *testing.T) {
	eng := simclock.NewEngine(t0)
	cfg := DefaultConfig()
	cfg.ReserveAfter = 2 * time.Hour
	cfg.MaxQueueWait = 0
	s, err := NewScheduler(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.AddHost("n"+string(rune('a'+i)), 4); err != nil {
			t.Fatal(err)
		}
	}
	// Saturate with a 6-GPU job, then submit an 8-GPU (full-machine) job,
	// then keep feeding small jobs that would starve it without the
	// reservation.
	hog := job(6, 3*time.Hour)
	wide := job(8, time.Hour)
	if err := s.Submit(hog); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(wide); err != nil {
		t.Fatal(err)
	}
	stop := t0.Add(12 * time.Hour)
	for at := t0.Add(30 * time.Minute); at.Before(stop); at = at.Add(30 * time.Minute) {
		at := at
		if _, err := eng.Schedule(at, func() {
			_ = s.Submit(job(2, 2*time.Hour))
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunAll()
	if wide.State != StateCompleted {
		t.Fatalf("wide job = %s; reservation failed to unblock it", wide.State)
	}
	// It must have started after the hog finished but not been starved for
	// the whole feed window.
	if wide.Start > At(t0.Add(8*time.Hour)) {
		t.Fatalf("wide job started too late: %v", wide.Start)
	}
}

func TestSubmitOversizedJobCancelled(t *testing.T) {
	s, _ := newSched(t, 1) // 4 GPUs capacity
	j := job(64, time.Hour)
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	if j.State != StateCancelled {
		t.Fatalf("oversized job = %s, want immediate CANCELLED", j.State)
	}
	if len(s.Records()) != 1 {
		t.Fatal("oversized job missing from records")
	}
}

func TestMaxQueueWaitCancels(t *testing.T) {
	eng := simclock.NewEngine(t0)
	cfg := DefaultConfig()
	cfg.MaxQueueWait = time.Hour
	s, err := NewScheduler(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddHost("gpub001", 4); err != nil {
		t.Fatal(err)
	}
	hog := job(4, 10*time.Hour)
	starved := job(4, time.Hour)
	if err := s.Submit(hog); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(starved); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if starved.State != StateCancelled {
		t.Fatalf("starved = %s, want CANCELLED after MaxQueueWait", starved.State)
	}
}

func TestRequeueOnNodeFail(t *testing.T) {
	eng := simclock.NewEngine(t0)
	cfg := DefaultConfig()
	cfg.RequeueOnNodeFail = true
	s, err := NewScheduler(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddHost("gpub001", 4); err != nil {
		t.Fatal(err)
	}
	j := job(2, 3*time.Hour)
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.Run(t0.Add(time.Hour))
	s.Kill(j, StateNodeFail, 1)
	eng.RunAll()

	records := s.Records()
	if len(records) != 2 {
		t.Fatalf("records = %d, want killed attempt + requeued copy", len(records))
	}
	if records[0].State != StateNodeFail {
		t.Fatalf("first attempt = %s", records[0].State)
	}
	clone := records[1]
	if clone.State != StateCompleted {
		t.Fatalf("requeued copy = %s", clone.State)
	}
	if clone.ID == j.ID || clone.Submit != At(t0.Add(time.Hour)) {
		t.Fatalf("clone identity wrong: id=%d submit=%v", clone.ID, clone.Submit)
	}
	if clone.Elapsed() != 3*time.Hour {
		t.Fatalf("clone restarted from scratch? elapsed = %v", clone.Elapsed())
	}
	// Non-NODE_FAIL kills must not requeue.
	k := job(1, time.Hour)
	if err := s.Submit(k); err != nil {
		t.Fatal(err)
	}
	eng.Run(eng.Now().Add(time.Minute))
	s.Kill(k, StateFailed, 2)
	eng.RunAll()
	if len(s.Records()) != 3 {
		t.Fatalf("records = %d, FAILED kill must not requeue", len(s.Records()))
	}
}

func TestDrainPending(t *testing.T) {
	s, eng := newSched(t, 1)
	hog := job(4, 10*time.Hour)
	waiting := job(4, time.Hour)
	if err := s.Submit(hog); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(waiting); err != nil {
		t.Fatal(err)
	}
	eng.Run(t0.Add(time.Minute))
	s.DrainPending()
	if waiting.State != StateCancelled {
		t.Fatalf("waiting = %s", waiting.State)
	}
	if s.PendingCount() != 0 {
		t.Fatal("pending queue not drained")
	}
}

func TestOnTerminalCallback(t *testing.T) {
	s, eng := newSched(t, 1)
	var got []*Job
	s.OnTerminal = func(j *Job) { got = append(got, j) }
	j := job(1, time.Minute)
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	eng.RunAll()
	if len(got) != 1 || got[0] != j {
		t.Fatalf("callback got %d jobs", len(got))
	}
}

func TestSubmitValidation(t *testing.T) {
	s, _ := newSched(t, 1)
	if err := s.Submit(nil); err == nil {
		t.Fatal("nil job accepted")
	}
	if err := s.Submit(&Job{GPUs: 0}); err == nil {
		t.Fatal("zero-GPU job accepted")
	}
	// A clock the record cannot hold refuses the job and spends no ID.
	before, err := NewScheduler(DefaultConfig(), simclock.NewEngine(time.Unix(0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := before.AddHost("n1", 4); err != nil {
		t.Fatal(err)
	}
	if err := before.Submit(job(1, time.Hour)); err == nil || !strings.Contains(err.Error(), "submit time") {
		t.Fatalf("submit at the epoch: err = %v", err)
	}
	if before.nextID != 1 {
		t.Fatalf("refused submit spent an ID: next %d", before.nextID)
	}
	if err := s.AddHost("gpub001", 4); err == nil {
		t.Fatal("duplicate host accepted")
	}
	if err := s.AddHost("x", 0); err == nil {
		t.Fatal("zero-GPU host accepted")
	}
	if _, err := NewScheduler(DefaultConfig(), nil); err == nil {
		t.Fatal("nil engine accepted")
	}
}

func TestPlacementRoundTrip(t *testing.T) {
	p := Placement{{Node: "gpub001", GPUs: []int{0, 1, 2, 3}}, {Node: "gpub002", GPUs: []int{1, 3}}}
	s := p.String()
	if s != "gpub001:0,1,2,3;gpub002:1,3" {
		t.Fatalf("encoded = %q", s)
	}
	back, err := ParsePlacement(s)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != s {
		t.Fatalf("round trip = %q", back.String())
	}
	// Parts in any order come back name-ordered; a repeated node keeps its
	// last list.
	for in, want := range map[string]string{
		"gpub002:1,3;gpub001:0,1,2,3":           s,
		"gpub002:0;gpub001:0,1,2,3;gpub002:1,3": s,
	} {
		got, err := ParsePlacement(in)
		if err != nil || got.String() != want {
			t.Errorf("ParsePlacement(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := ParsePlacement("bad"); err == nil {
		t.Fatal("bad placement parsed")
	}
	empty, err := ParsePlacement("")
	if err != nil || len(empty) != 0 {
		t.Fatal("empty placement should parse to an empty placement")
	}
}

func TestDBRoundTrip(t *testing.T) {
	s, eng := newSched(t, 2)
	jobs := []*Job{job(1, time.Hour), job(4, 2*time.Hour), job(6, 30*time.Minute)}
	jobs[1].FailNaturally = true
	jobs[1].NaturalExitCode = 137
	jobs[2].ML = true
	jobs[2].Text = &JobText{Name: "train|model"} // separator must be sanitized
	for _, j := range jobs {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunAll()

	var buf bytes.Buffer
	if err := DumpDB(&buf, s.Records()); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("loaded %d jobs", len(back))
	}
	for i, j := range back {
		orig := s.Records()[i]
		if j.ID != orig.ID || j.State != orig.State || j.ExitCode != orig.ExitCode ||
			j.GPUs != orig.GPUs || j.Submit != orig.Submit ||
			j.Start != orig.Start || j.End != orig.End ||
			j.ML != orig.ML || j.Place.Nodes().String() != orig.Place.Nodes().String() {
			t.Fatalf("job %d mismatch:\n got %+v\nwant %+v", i, j, orig)
		}
		if strings.Contains(j.Name(), "|") {
			t.Fatal("separator not sanitized")
		}
	}
}

// TestJobRecordSize pins the compact job record: the simulator's slab and
// LoadDB's arena hold one per job, so its size sets the job side's memory.
func TestJobRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(Job{}); n > 72 {
		t.Fatalf("Job is %d bytes, want <= 72", n)
	}
}

func TestLoadDBErrors(t *testing.T) {
	if _, err := LoadDB(strings.NewReader("wrong header\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	bad := dbHeader + "\nnot|enough|fields\n"
	if _, err := LoadDB(strings.NewReader(bad)); err == nil {
		t.Fatal("short line accepted")
	}
}

func TestParseJobStateRoundTripProperty(t *testing.T) {
	states := []JobState{StatePending, StateRunning, StateCompleted, StateFailed,
		StateNodeFail, StateCancelled, StateTimeout}
	f := func(i uint8) bool {
		st := states[int(i)%len(states)]
		back, err := ParseJobState(st.String())
		return err == nil && back == st
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseJobState("NOPE"); err == nil {
		t.Fatal("unknown state parsed")
	}
}

// Property: GPUs are never double-booked — at any time each (host, gpu) runs
// at most one job, checked by replaying random submissions.
func TestNoDoubleBookingProperty(t *testing.T) {
	f := func(seed uint16) bool {
		eng := simclock.NewEngine(t0)
		s, err := NewScheduler(DefaultConfig(), eng)
		if err != nil {
			return false
		}
		for i := 0; i < 3; i++ {
			if err := s.AddHost("n"+string(rune('a'+i)), 4); err != nil {
				return false
			}
		}
		r := int(seed)
		for i := 0; i < 40; i++ {
			r = (r*1103515245 + 12345) & 0x7fffffff
			g := 1 + r%6
			d := time.Duration(1+r%300) * time.Minute
			if err := s.Submit(job(g, d)); err != nil {
				return false
			}
			eng.Run(eng.Now().Add(time.Duration(r%45) * time.Minute))
			// Invariant: every running job's placement GPUs map back to it.
			for _, h := range s.hosts {
				booked := 0
				for range h.running {
					booked++
				}
				if booked+h.freeCount > h.numGPUs {
					return false
				}
			}
		}
		eng.RunAll()
		for _, j := range s.Records() {
			if !j.State.Terminal() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
