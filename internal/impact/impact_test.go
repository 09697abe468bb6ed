package impact

import (
	"math"
	"testing"
	"time"

	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/stats"
	"gpuresilience/internal/xid"
)

var opPeriod = stats.Period{
	Name:  "op",
	Start: time.Date(2022, 10, 1, 0, 0, 0, 0, time.UTC),
	End:   time.Date(2025, 3, 14, 0, 0, 0, 0, time.UTC),
}

var base = opPeriod.Start.Add(30 * 24 * time.Hour)

func runJob(id int, node string, gpus []int, start time.Time, dur time.Duration,
	state slurmsim.JobState) *slurmsim.Job {
	return &slurmsim.Job{
		ID: id, Name: "job", GPUs: len(gpus),
		Submit: start.Add(-time.Minute), Start: start, End: start.Add(dur),
		State: state, Place: slurmsim.Placement{{Node: node, GPUs: gpus}},
	}
}

func ev(at time.Time, node string, gpu int, code xid.Code) xid.Event {
	return xid.Event{Time: at, Node: node, GPU: gpu, Code: code}
}

func TestCorrelateAttribution(t *testing.T) {
	// Job killed at base+1h; MMU error 5 s before its end -> GPU-failed.
	j1 := runJob(1, "n1", []int{0, 1}, base, time.Hour, slurmsim.StateNodeFail)
	// Job that saw an NVLink error mid-run but completed -> encounter only.
	j2 := runJob(2, "n1", []int{2}, base, 2*time.Hour, slurmsim.StateCompleted)
	// Job on another node, no errors.
	j3 := runJob(3, "n2", []int{0}, base, time.Hour, slurmsim.StateCompleted)
	// Job that failed naturally with no error in window.
	j4 := runJob(4, "n1", []int{3}, base, time.Hour, slurmsim.StateFailed)

	events := []xid.Event{
		ev(base.Add(time.Hour-5*time.Second), "n1", 0, xid.MMU),
		ev(base.Add(30*time.Minute), "n1", 2, xid.NVLink),
	}
	cor, err := Correlate([]*slurmsim.Job{j1, j2, j3, j4}, events, DefaultConfig(opPeriod))
	if err != nil {
		t.Fatal(err)
	}
	mmu, ok := cor.Row(xid.MMU)
	if !ok || mmu.JobsEncountering != 1 || mmu.GPUFailedJobs != 1 || mmu.FailureProb != 1 {
		t.Fatalf("MMU row = %+v", mmu)
	}
	nvl, ok := cor.Row(xid.NVLink)
	if !ok || nvl.JobsEncountering != 1 || nvl.GPUFailedJobs != 0 || nvl.FailureProb != 0 {
		t.Fatalf("NVLink row = %+v", nvl)
	}
	if cor.TotalGPUFailedJobs != 1 || cor.EncounteredAny != 2 {
		t.Fatalf("totals = %+v", cor)
	}
}

func TestCorrelateWindowBoundary(t *testing.T) {
	end := base.Add(time.Hour)
	j := runJob(1, "n1", []int{0}, base, time.Hour, slurmsim.StateFailed)
	// Error exactly 20 s before the end is inside the closed window; 21 s
	// before is outside.
	inside := ev(end.Add(-20*time.Second), "n1", 0, xid.GSPRPCTimeout)
	outside := ev(end.Add(-21*time.Second), "n1", 0, xid.PMUSPIReadFail)
	cor, err := Correlate([]*slurmsim.Job{j}, []xid.Event{inside, outside}, DefaultConfig(opPeriod))
	if err != nil {
		t.Fatal(err)
	}
	gsp, _ := cor.Row(xid.GSPRPCTimeout)
	if gsp.GPUFailedJobs != 1 {
		t.Fatalf("GSP at window edge not attributed: %+v", gsp)
	}
	pmu, _ := cor.Row(xid.PMUSPIReadFail)
	if pmu.GPUFailedJobs != 0 || pmu.JobsEncountering != 1 {
		t.Fatalf("PMU outside window attributed: %+v", pmu)
	}
}

func TestCorrelateIgnoresOtherGPUs(t *testing.T) {
	j := runJob(1, "n1", []int{0}, base, time.Hour, slurmsim.StateFailed)
	events := []xid.Event{
		ev(base.Add(time.Hour-time.Second), "n1", 1, xid.MMU), // different GPU
		ev(base.Add(time.Hour-time.Second), "n2", 0, xid.MMU), // different node
	}
	cor, err := Correlate([]*slurmsim.Job{j}, events, DefaultConfig(opPeriod))
	if err != nil {
		t.Fatal(err)
	}
	if cor.EncounteredAny != 0 || len(cor.Rows) != 0 {
		t.Fatalf("errors on foreign GPUs were counted: %+v", cor)
	}
}

func TestCorrelateIgnoresExcludedCodesAndOutOfPeriod(t *testing.T) {
	j := runJob(1, "n1", []int{0}, base, time.Hour, slurmsim.StateFailed)
	preOp := opPeriod.Start.Add(-time.Hour)
	events := []xid.Event{
		ev(base.Add(30*time.Minute), "n1", 0, xid.GPUSoftware), // excluded code
		ev(preOp, "n1", 0, xid.MMU),                            // outside period
	}
	cor, err := Correlate([]*slurmsim.Job{j}, events, DefaultConfig(opPeriod))
	if err != nil {
		t.Fatal(err)
	}
	if len(cor.Rows) != 0 {
		t.Fatalf("rows = %+v", cor.Rows)
	}
}

func TestCorrelateSucceededJobNeverGPUFailed(t *testing.T) {
	j := runJob(1, "n1", []int{0}, base, time.Hour, slurmsim.StateCompleted)
	events := []xid.Event{ev(base.Add(time.Hour-time.Second), "n1", 0, xid.MMU)}
	cor, err := Correlate([]*slurmsim.Job{j}, events, DefaultConfig(opPeriod))
	if err != nil {
		t.Fatal(err)
	}
	row, _ := cor.Row(xid.MMU)
	if row.GPUFailedJobs != 0 || row.JobsEncountering != 1 {
		t.Fatalf("completed job counted as GPU-failed: %+v", row)
	}
}

func TestCorrelateValidation(t *testing.T) {
	if _, err := Correlate(nil, nil, Config{AttributionWindow: 0, Period: opPeriod}); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := Correlate(nil, nil, Config{AttributionWindow: time.Second}); err == nil {
		t.Fatal("empty period accepted")
	}
}

func TestLostCompute(t *testing.T) {
	// j1: 2-GPU, 1h, killed by MMU -> 2 GPU hours under MMU.
	j1 := runJob(1, "n1", []int{0, 1}, base, time.Hour, slurmsim.StateNodeFail)
	// j2: 1-GPU, 2h, killed with both PMU and MMU in the window -> counted
	// under both codes, once in the total.
	j2 := runJob(2, "n2", []int{0}, base, 2*time.Hour, slurmsim.StateNodeFail)
	// j3: failed naturally without attribution -> not lost-to-GPU.
	j3 := runJob(3, "n3", []int{0}, base, 5*time.Hour, slurmsim.StateFailed)
	// j4: completed with an error mid-run -> not counted.
	j4 := runJob(4, "n1", []int{2}, base, time.Hour, slurmsim.StateCompleted)

	events := []xid.Event{
		ev(j1.End.Add(-time.Second), "n1", 0, xid.MMU),
		ev(j2.End.Add(-2*time.Second), "n2", 0, xid.PMUSPIReadFail),
		ev(j2.End.Add(-time.Second), "n2", 0, xid.MMU),
		ev(base.Add(30*time.Minute), "n1", 2, xid.NVLink),
	}
	rows, total, err := LostCompute([]*slurmsim.Job{j1, j2, j3, j4}, events, DefaultConfig(opPeriod))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-4) > 1e-9 { // 2 + 2 GPU hours
		t.Fatalf("total lost = %v", total)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	// MMU leads: 2 jobs, 4 GPU hours; PMU: 1 job, 2 GPU hours.
	if rows[0].Code != xid.MMU || rows[0].Jobs != 2 || math.Abs(rows[0].LostGPUHours-4) > 1e-9 {
		t.Fatalf("MMU row = %+v", rows[0])
	}
	if rows[1].Code != xid.PMUSPIReadFail || rows[1].Jobs != 1 || math.Abs(rows[1].LostGPUHours-2) > 1e-9 {
		t.Fatalf("PMU row = %+v", rows[1])
	}
}

// TestLostComputeAgreesWithTableII: an error on a short job's GPU just
// before the job started lies inside the attribution window before its
// failure but outside its run, so it is not attributed — in Table II and
// in the lost-compute breakdown alike.
func TestLostComputeAgreesWithTableII(t *testing.T) {
	j := runJob(1, "n1", []int{0}, base, 5*time.Second, slurmsim.StateNodeFail)
	events := []xid.Event{ev(base.Add(-10*time.Second), "n1", 0, xid.MMU)}
	jobs := []*slurmsim.Job{j}
	cor, err := Correlate(jobs, events, DefaultConfig(opPeriod))
	if err != nil {
		t.Fatal(err)
	}
	rows, total, err := LostCompute(jobs, events, DefaultConfig(opPeriod))
	if err != nil {
		t.Fatal(err)
	}
	if cor.TotalGPUFailedJobs != 0 || cor.EncounteredAny != 0 {
		t.Fatalf("Table II: %d GPU-failed, %d encountering; want 0 and 0", cor.TotalGPUFailedJobs, cor.EncounteredAny)
	}
	if len(rows) != 0 || total != 0 {
		t.Fatalf("lost compute = %+v, total %v; want none, as in Table II", rows, total)
	}
}

func TestLostComputeValidation(t *testing.T) {
	if _, _, err := LostCompute(nil, nil, Config{AttributionWindow: 0, Period: opPeriod}); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, _, err := LostCompute(nil, nil, Config{AttributionWindow: time.Second}); err == nil {
		t.Fatal("empty period accepted")
	}
}

func TestClassifyML(t *testing.T) {
	for _, name := range []string{"train_resnet50", "bert_finetune_model", "LLM_train", "gan_model"} {
		if !ClassifyML(name) {
			t.Errorf("%q not classified ML", name)
		}
	}
	for _, name := range []string{"namd_md_prod", "wrf_forecast", "qchem_scf"} {
		if ClassifyML(name) {
			t.Errorf("%q classified ML", name)
		}
	}
}

func TestTableIII(t *testing.T) {
	jobs := []*slurmsim.Job{
		runJob(1, "n1", []int{0}, base, 10*time.Minute, slurmsim.StateCompleted),
		runJob(2, "n1", []int{0}, base, 30*time.Minute, slurmsim.StateCompleted),
		runJob(3, "n1", []int{0, 1, 2, 3}, base, 60*time.Minute, slurmsim.StateFailed),
	}
	jobs[2].Name = "train_model"
	jobs[2].GPUs = 4
	rows := TableIII(jobs)
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Count != 2 || math.Abs(rows[0].Pct-66.67) > 0.1 {
		t.Fatalf("bucket 1 = %+v", rows[0])
	}
	if rows[0].MeanMin != 20 || rows[0].P50Min != 20 {
		t.Fatalf("bucket 1 stats = %+v", rows[0])
	}
	if rows[1].Count != 1 || rows[1].MLGPUHoursK*1000 != 4 || rows[1].NonMLGPUHoursK != 0 {
		t.Fatalf("bucket 2-4 = %+v", rows[1])
	}
	// Non-started jobs are excluded.
	pendingOnly := []*slurmsim.Job{{State: slurmsim.StateCancelled, GPUs: 1}}
	for _, r := range TableIII(pendingOnly) {
		if r.Count != 0 {
			t.Fatal("unstarted job counted")
		}
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[int]string{1: "1", 2: "2-4", 4: "2-4", 5: "4-8", 8: "4-8",
		9: "8-32", 32: "8-32", 64: "32-64", 128: "64-128", 256: "128-256", 448: "256+"}
	for gpus, want := range cases {
		if got := bucketNames[bucketOf(gpus)]; got != want {
			t.Errorf("bucketOf(%d) = %s, want %s", gpus, got, want)
		}
	}
}

func TestComputeJobStats(t *testing.T) {
	jobs := []*slurmsim.Job{
		runJob(1, "n1", []int{0}, base, time.Minute, slurmsim.StateCompleted),
		runJob(2, "n1", []int{0, 1}, base, time.Minute, slurmsim.StateFailed),
		runJob(3, "n1", []int{0, 1, 2, 3, 0, 1, 2, 3}, base, time.Minute, slurmsim.StateCompleted),
	}
	jobs[1].GPUs = 2
	jobs[2].GPUs = 8
	st := ComputeJobStats(jobs, 1000, 749)
	if st.GPUTotal != 3 || st.GPUSucceeded != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if math.Abs(st.GPUSuccessRate-2.0/3) > 1e-9 || math.Abs(st.CPUSuccessRate-0.749) > 1e-9 {
		t.Fatalf("rates = %+v", st)
	}
	if math.Abs(st.ShareSingleGPU-1.0/3) > 1e-9 || math.Abs(st.Share2to4-1.0/3) > 1e-9 ||
		math.Abs(st.ShareOver4-1.0/3) > 1e-9 {
		t.Fatalf("shares = %+v", st)
	}
}
