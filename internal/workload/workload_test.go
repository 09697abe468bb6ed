package workload

import (
	"math"
	"sort"
	"testing"
	"time"

	"gpuresilience/internal/stats"
)

var opPeriod = stats.Period{
	Name:  "operational",
	Start: time.Date(2022, 10, 1, 0, 0, 0, 0, time.UTC),
	End:   time.Date(2025, 3, 14, 0, 0, 0, 0, time.UTC),
}

func TestDefaultBucketsTotalCount(t *testing.T) {
	total := 0
	for _, b := range DefaultBuckets() {
		total += b.Count
	}
	// Sum of Table III bucket counts.
	if total != 1450291 {
		t.Fatalf("total bucket count = %d, want 1,450,291", total)
	}
}

func TestGeneratorValidation(t *testing.T) {
	cfg := DefaultConfig(1, opPeriod, 1)
	cfg.Scale = 0
	if _, err := NewGenerator(cfg); err == nil {
		t.Fatal("zero scale accepted")
	}
	cfg = DefaultConfig(1, opPeriod, 1)
	cfg.BaselineFailProb = 2
	if _, err := NewGenerator(cfg); err == nil {
		t.Fatal("bad fail prob accepted")
	}
	cfg = DefaultConfig(1, opPeriod, 1)
	cfg.Buckets = nil
	if _, err := NewGenerator(cfg); err == nil {
		t.Fatal("empty buckets accepted")
	}
	cfg = DefaultConfig(1, opPeriod, 1)
	cfg.Buckets[0].MedianMin = -1
	if _, err := NewGenerator(cfg); err == nil {
		t.Fatal("negative median accepted")
	}
	cfg = DefaultConfig(1, opPeriod, 1)
	cfg.Buckets[0].GPUWeights = nil
	if _, err := NewGenerator(cfg); err == nil {
		t.Fatal("mismatched GPU mix accepted")
	}
}

func TestJobsSortedAndInPeriod(t *testing.T) {
	g, err := NewGenerator(DefaultConfig(42, opPeriod, 0.002))
	if err != nil {
		t.Fatal(err)
	}
	jobs := g.Jobs()
	if len(jobs) < 2000 {
		t.Fatalf("generated %d jobs, want ~2900", len(jobs))
	}
	for i, j := range jobs {
		if !opPeriod.Contains(j.Submit) {
			t.Fatalf("job %d submit %v out of period", i, j.Submit)
		}
		if i > 0 && jobs[i-1].Submit.After(j.Submit) {
			t.Fatal("jobs not sorted by submit time")
		}
		if j.GPUs < 1 || j.RunDuration <= 0 || j.TimeLimit <= 0 {
			t.Fatalf("job %d invalid: %+v", i, j)
		}
		if j.Name == "" || j.User == "" || j.Partition != "gpuA100x4" {
			t.Fatalf("job %d identity invalid", i)
		}
	}
}

func TestJobsDeterministic(t *testing.T) {
	mk := func() []string {
		g, err := NewGenerator(DefaultConfig(7, opPeriod, 0.001))
		if err != nil {
			t.Fatal(err)
		}
		jobs := g.Jobs()
		out := make([]string, len(jobs))
		for i, j := range jobs {
			out[i] = j.Submit.String() + j.Name
		}
		return out
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs between equal-seed runs", i)
		}
	}
}

// TestBucketDistributionsMatchTableIII checks that the generated population
// reproduces the per-bucket shares, median/mean elapsed, and GPU-count means
// implied by Table III.
func TestBucketDistributionsMatchTableIII(t *testing.T) {
	g, err := NewGenerator(DefaultConfig(11, opPeriod, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	jobs := g.Jobs()
	buckets := DefaultBuckets()

	bucketOf := func(gpus int) int {
		switch {
		case gpus == 1:
			return 0
		case gpus <= 4:
			return 1
		case gpus <= 8:
			return 2
		case gpus <= 32:
			return 3
		case gpus <= 64:
			return 4
		case gpus <= 128:
			return 5
		case gpus <= 256:
			return 6
		default:
			return 7
		}
	}
	durs := make([][]float64, len(buckets))
	gpuSum := make([]float64, len(buckets))
	for _, j := range jobs {
		bi := bucketOf(j.GPUs)
		d := j.RunDuration.Minutes()
		if cap := j.TimeLimit.Minutes(); d > cap {
			d = cap // the scheduler will truncate at TimeLimit
		}
		durs[bi] = append(durs[bi], d)
		gpuSum[bi] += float64(j.GPUs)
	}

	// Share of single-GPU jobs ~ 69.86%.
	share1 := float64(len(durs[0])) / float64(len(jobs))
	if math.Abs(share1-0.6986) > 0.01 {
		t.Errorf("single-GPU share = %.4f, want ~0.6986", share1)
	}

	// Check the three largest buckets' elapsed stats (small buckets are too
	// noisy at 5%% scale).
	for bi := 0; bi < 4; bi++ {
		b := buckets[bi]
		xs := durs[bi]
		if len(xs) < 100 {
			t.Fatalf("bucket %s has only %d samples", b.Name, len(xs))
		}
		sort.Float64s(xs)
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(len(xs))
		p50 := stats.Percentile(xs, 50)
		if math.Abs(p50-b.MedianMin) > 0.15*b.MedianMin {
			t.Errorf("bucket %s p50 = %.2f min, want ~%.2f", b.Name, p50, b.MedianMin)
		}
		// Heavy-tailed means need large samples to converge; only the two
		// biggest buckets have enough at this scale.
		if bi < 2 && math.Abs(mean-b.MeanMin) > 0.15*b.MeanMin {
			t.Errorf("bucket %s mean = %.2f min, want ~%.2f", b.Name, mean, b.MeanMin)
		}
		meanGPU := gpuSum[bi] / float64(len(xs))
		// Implied mean GPUs: published GPU hours / (count x mean hours).
		switch bi {
		case 1:
			if math.Abs(meanGPU-3.6) > 0.2 {
				t.Errorf("bucket 2-4 mean GPUs = %.2f, want ~3.6", meanGPU)
			}
		case 3:
			if math.Abs(meanGPU-20.7) > 1.5 {
				t.Errorf("bucket 8-32 mean GPUs = %.2f, want ~20.7", meanGPU)
			}
		}
	}
}

// TestTotalGPUHoursNearTableIII checks the whole population's offered load:
// Table III sums to ~9.05M GPU hours over the operational period.
func TestTotalGPUHoursNearTableIII(t *testing.T) {
	const scale = 0.02
	g, err := NewGenerator(DefaultConfig(13, opPeriod, scale))
	if err != nil {
		t.Fatal(err)
	}
	var hours float64
	for _, j := range g.Jobs() {
		d := j.RunDuration
		if d > j.TimeLimit {
			d = j.TimeLimit
		}
		hours += d.Hours() * float64(j.GPUs)
	}
	full := hours / scale
	if math.Abs(full-9.05e6) > 0.08*9.05e6 {
		t.Fatalf("full-scale GPU hours = %.3g, want ~9.05M", full)
	}
}

func TestMLLabeling(t *testing.T) {
	g, err := NewGenerator(DefaultConfig(17, opPeriod, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	jobs := g.Jobs()
	ml := 0
	for _, j := range jobs {
		if j.ML {
			ml++
			if !containsMLKeyword(j.Name) {
				t.Fatalf("ML job %q has no ML keyword", j.Name)
			}
		} else if containsMLKeyword(j.Name) {
			t.Fatalf("non-ML job %q has ML keyword", j.Name)
		}
	}
	frac := float64(ml) / float64(len(jobs))
	if frac < 0.05 || frac > 0.15 {
		t.Fatalf("ML fraction = %.3f, want ~0.08-0.10", frac)
	}
}

func containsMLKeyword(name string) bool {
	for _, kw := range []string{"train", "model", "bert", "llm", "gan", "diffusion", "cnn", "gnn", "rl_"} {
		if len(name) >= len(kw) {
			for i := 0; i+len(kw) <= len(name); i++ {
				if name[i:i+len(kw)] == kw {
					return true
				}
			}
		}
	}
	return false
}

func TestBaselineFailureRate(t *testing.T) {
	g, err := NewGenerator(DefaultConfig(19, opPeriod, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	jobs := g.Jobs()
	fails := 0
	for _, j := range jobs {
		if j.FailNaturally {
			fails++
			if j.NaturalExitCode == 0 {
				t.Fatal("natural failure with exit 0")
			}
		}
	}
	frac := float64(fails) / float64(len(jobs))
	if math.Abs(frac-0.225) > 0.02 {
		t.Fatalf("natural failure rate = %.3f, want ~0.225", frac)
	}
}

func TestDiurnalModulation(t *testing.T) {
	cfg := DefaultConfig(23, opPeriod, 0.02)
	cfg.DiurnalAmplitude = 0.5
	cfg.DiurnalPeakHour = 14
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	day := make([]int, 24)
	for _, j := range g.Jobs() {
		day[j.Submit.Hour()]++
	}
	// Afternoon submissions should clearly exceed small-hour submissions.
	peak := day[13] + day[14] + day[15]
	trough := day[1] + day[2] + day[3]
	if float64(peak) < 1.8*float64(trough) {
		t.Fatalf("peak %d vs trough %d: modulation too weak", peak, trough)
	}
	// Total counts are unchanged by the warp.
	total := 0
	for _, c := range day {
		total += c
	}
	if total != len(g.Jobs()) {
		t.Fatal("jobs lost in the warp")
	}
}

func TestDiurnalValidation(t *testing.T) {
	cfg := DefaultConfig(1, opPeriod, 0.01)
	cfg.DiurnalAmplitude = 1.2
	if _, err := NewGenerator(cfg); err == nil {
		t.Fatal("amplitude >= 1 accepted")
	}
}

func TestWarpTimeOfDayIsMonotoneCDFInverse(t *testing.T) {
	last := -1.0
	w := newDiurnalWarp(0.4, 14)
	for u := 0.0; u <= 1.0; u += 0.01 {
		tau := w.at(u)
		if tau < 0 || tau >= 24.0001 {
			t.Fatalf("warp(%v) = %v out of range", u, tau)
		}
		if tau < last {
			t.Fatalf("warp not monotone at u=%v", u)
		}
		last = tau
	}
}

func TestGenerateCPURecords(t *testing.T) {
	rec := GenerateCPURecords(3, 0.01)
	if rec.Total != 16867 {
		t.Fatalf("total = %d", rec.Total)
	}
	rate := float64(rec.Succeeded) / float64(rec.Total)
	if math.Abs(rate-0.749) > 0.02 {
		t.Fatalf("cpu success rate = %.4f, want ~0.749", rate)
	}
}

func TestFitSigmaDegenerate(t *testing.T) {
	// median == mean needs sigma ~ 0; must not error.
	s, err := fitSigma(10, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s > 0.02 {
		t.Fatalf("sigma = %v for degenerate case", s)
	}
	// Unreachable mean (above cap) must error.
	if _, err := fitSigma(10, 5000, 100); err == nil {
		t.Fatal("unreachable mean accepted")
	}
}
