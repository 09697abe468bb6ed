package checkpoint

import (
	"math"
	"testing"
	"time"

	"gpuresilience/internal/slurmsim"
)

var t0 = time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)

func job(gpus int, elapsed time.Duration, state slurmsim.JobState) *slurmsim.Job {
	return &slurmsim.Job{
		GPUs: int32(gpus), Start: slurmsim.At(t0), End: slurmsim.At(t0.Add(elapsed)), State: state,
		Place: &slurmsim.Placement{{Node: "n1", GPUs: make([]int, gpus)}},
	}
}

func TestYoungDaly(t *testing.T) {
	// sqrt(2 * 60s * 12.5h) -> sqrt(2*60*45000) = 2323.8 s.
	got, err := YoungDaly(time.Minute, 12*time.Hour+30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Seconds()-2323.79) > 0.5 {
		t.Fatalf("interval = %v", got)
	}
	if _, err := YoungDaly(0, time.Hour); err == nil {
		t.Fatal("zero cost accepted")
	}
	if _, err := YoungDaly(time.Minute, 0); err == nil {
		t.Fatal("zero MTBF accepted")
	}
}

func TestEvaluateNoCheckpointing(t *testing.T) {
	jobs := []*slurmsim.Job{
		job(2, 10*time.Hour, slurmsim.StateNodeFail),
		job(1, 4*time.Hour, slurmsim.StateCompleted),
	}
	out, err := Evaluate(jobs, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if out.JobsAnalyzed != 2 || out.GPUFailedJobs != 1 {
		t.Fatalf("outcome = %+v", out)
	}
	if out.LostGPUHoursNoCkpt != 20 || out.LostGPUHoursWithCkpt != 20 {
		t.Fatalf("lost = %v / %v", out.LostGPUHoursNoCkpt, out.LostGPUHoursWithCkpt)
	}
	if out.OverheadGPUHours != 0 || out.NetSavedGPUHours != -0 {
		t.Fatalf("overhead = %v net = %v", out.OverheadGPUHours, out.NetSavedGPUHours)
	}
}

func TestEvaluateWithCheckpointing(t *testing.T) {
	// A 10h 2-GPU job killed by a node failure; checkpoints every hour at
	// 1-minute cost, 5-minute restart. Elapsed 10h -> since-last-ckpt 0,
	// lost = restart only.
	jobs := []*slurmsim.Job{
		job(2, 10*time.Hour, slurmsim.StateNodeFail),
		job(1, 90*time.Minute, slurmsim.StateCompleted),
	}
	policy := Policy{Interval: time.Hour, Cost: time.Minute, Restart: 5 * time.Minute}
	out, err := Evaluate(jobs, policy)
	if err != nil {
		t.Fatal(err)
	}
	// Lost with ckpt: (0h since ckpt + 5min restart) x 2 GPUs = 1/6 GPUh.
	if math.Abs(out.LostGPUHoursWithCkpt-2*5.0/60) > 1e-9 {
		t.Fatalf("lost with ckpt = %v", out.LostGPUHoursWithCkpt)
	}
	// Overhead: failed job writes 10 ckpts x 1min x 2 GPUs = 20 min;
	// completed job writes 1 ckpt x 1min x 1 GPU.
	wantOverhead := (20.0 + 1.0) / 60
	if math.Abs(out.OverheadGPUHours-wantOverhead) > 1e-9 {
		t.Fatalf("overhead = %v, want %v", out.OverheadGPUHours, wantOverhead)
	}
	if out.NetSavedGPUHours < 19 {
		t.Fatalf("net saved = %v, want ~19.5", out.NetSavedGPUHours)
	}
}

func TestEvaluateLostCappedAtElapsed(t *testing.T) {
	// A job killed 2 minutes in cannot lose more than 2 minutes even with a
	// large restart cost.
	jobs := []*slurmsim.Job{job(1, 2*time.Minute, slurmsim.StateNodeFail)}
	out, err := Evaluate(jobs, Policy{Interval: time.Hour, Cost: time.Second, Restart: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.LostGPUHoursWithCkpt-2.0/60) > 1e-9 {
		t.Fatalf("lost = %v", out.LostGPUHoursWithCkpt)
	}
}

func TestEvaluateSkipsUnstartedJobs(t *testing.T) {
	jobs := []*slurmsim.Job{{State: slurmsim.StateCancelled, GPUs: 1}}
	out, err := Evaluate(jobs, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if out.JobsAnalyzed != 0 {
		t.Fatalf("analyzed = %d", out.JobsAnalyzed)
	}
}

func TestPolicyValidation(t *testing.T) {
	if _, err := Evaluate(nil, Policy{Interval: -1}); err == nil {
		t.Fatal("negative interval accepted")
	}
	if _, err := Evaluate(nil, Policy{Interval: time.Minute, Cost: time.Minute}); err == nil {
		t.Fatal("cost >= interval accepted")
	}
}

func TestSweepMonotonicOverhead(t *testing.T) {
	jobs := []*slurmsim.Job{
		job(4, 24*time.Hour, slurmsim.StateNodeFail),
		job(4, 24*time.Hour, slurmsim.StateCompleted),
	}
	intervals := []time.Duration{30 * time.Minute, time.Hour, 4 * time.Hour}
	outs, err := Sweep(jobs, intervals, time.Minute, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("outs = %d", len(outs))
	}
	// Shorter intervals cost more overhead but lose less per failure.
	if !(outs[0].OverheadGPUHours > outs[1].OverheadGPUHours &&
		outs[1].OverheadGPUHours > outs[2].OverheadGPUHours) {
		t.Fatalf("overheads not decreasing: %+v", outs)
	}
	if !(outs[0].LostGPUHoursWithCkpt <= outs[1].LostGPUHoursWithCkpt &&
		outs[1].LostGPUHoursWithCkpt <= outs[2].LostGPUHoursWithCkpt) {
		t.Fatalf("losses not increasing")
	}
}
