// Package workload generates the synthetic Delta job population. The
// generator is calibrated to Table III of the paper: per-bucket job counts,
// GPU-count mixes (chosen so per-bucket GPU hours match), and elapsed-time
// distributions (lognormal fitted to the published P50 and mean under the
// wall-clock cap). Machine-learning jobs are labeled through their names
// (keywords like "train" and "model"), which is exactly the signal the
// study's classifier keys on.
package workload

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"gpuresilience/internal/randx"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/stats"
)

// BucketSpec describes one Table III row at full scale.
type BucketSpec struct {
	Name       string    // Table III bucket label, e.g. "2-4"
	Count      int       // full-scale number of jobs
	MedianMin  float64   // target P50 elapsed, minutes
	MeanMin    float64   // target mean elapsed, minutes
	CapMin     float64   // wall-clock limit, minutes
	GPUChoices []int     // GPU counts drawn within the bucket
	GPUWeights []float64 // weights of GPUChoices (sum need not be 1)
	MLFrac     float64   // fraction of ML jobs in the bucket
}

// DefaultBuckets returns the Table III calibration. GPU-count mixes are
// solved so that count x mean-elapsed x mean-GPUs reproduces the published
// per-bucket GPU hours.
func DefaultBuckets() []BucketSpec {
	return []BucketSpec{
		{Name: "1", Count: 1013170, MedianMin: 10.15, MeanMin: 175.62, CapMin: 2880,
			GPUChoices: []int{1}, GPUWeights: []float64{1}, MLFrac: 0.0815},
		{Name: "2-4", Count: 396133, MedianMin: 4.75, MeanMin: 145.04, CapMin: 2880,
			GPUChoices: []int{2, 3, 4}, GPUWeights: []float64{0.15, 0.10, 0.75}, MLFrac: 0.0998},
		{Name: "4-8", Count: 22474, MedianMin: 2.70, MeanMin: 133.89, CapMin: 2880,
			GPUChoices: []int{6, 8}, GPUWeights: []float64{0.05, 0.95}, MLFrac: 0.1460},
		{Name: "8-32", Count: 15440, MedianMin: 73.73, MeanMin: 270.40, CapMin: 2880,
			GPUChoices: []int{16, 32}, GPUWeights: []float64{0.70, 0.30}, MLFrac: 0.0744},
		{Name: "32-64", Count: 2054, MedianMin: 10.25, MeanMin: 204.52, CapMin: 2880,
			GPUChoices: []int{48, 64}, GPUWeights: []float64{0.53, 0.47}, MLFrac: 0.4169},
		{Name: "64-128", Count: 913, MedianMin: 0.32, MeanMin: 226.28, CapMin: 2880,
			GPUChoices: []int{96, 128}, GPUWeights: []float64{0.85, 0.15}, MLFrac: 0.0722},
		{Name: "128-256", Count: 82, MedianMin: 9.19, MeanMin: 226.53, CapMin: 2880,
			GPUChoices: []int{160, 256}, GPUWeights: []float64{0.90, 0.10}, MLFrac: 0},
		{Name: "256+", Count: 25, MedianMin: 20.40, MeanMin: 32.12, CapMin: 121,
			GPUChoices: []int{320, 448}, GPUWeights: []float64{0.88, 0.12}, MLFrac: 0},
	}
}

// Config parameterizes the generator.
type Config struct {
	Seed   uint64       // generator PRNG seed
	Period stats.Period // submission window jobs are spread over
	// Scale multiplies all job counts (1.0 = the full 1.45M-job population).
	Scale   float64
	Buckets []BucketSpec // per-GPU-count-bucket population shapes
	// BaselineFailProb is the probability a job that runs to its natural end
	// exits non-zero for non-GPU reasons (user bugs, OOM, bad input) — the
	// bulk of the study's ~25% failure rate.
	BaselineFailProb float64
	// DiurnalAmplitude modulates submissions over the time of day with
	// density 1 + a*cos(2*pi*(hour-peak)/24): campus workloads peak in the
	// afternoon and thin out overnight. Zero keeps arrivals uniform.
	DiurnalAmplitude float64
	// DiurnalPeakHour is the local hour of peak submission (default 14).
	DiurnalPeakHour float64
}

// DefaultConfig returns the operational-period calibration at the given
// scale.
func DefaultConfig(seed uint64, period stats.Period, scale float64) Config {
	return Config{
		Seed:             seed,
		Period:           period,
		Scale:            scale,
		Buckets:          DefaultBuckets(),
		BaselineFailProb: 0.233,
	}
}

// Generator produces job populations.
type Generator struct {
	cfg    Config
	sigmas []float64 // fitted lognormal sigma per bucket
}

// NewGenerator validates cfg and fits the per-bucket duration distributions.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.Period.Validate(); err != nil {
		return nil, err
	}
	if cfg.Scale <= 0 {
		return nil, errors.New("workload: scale must be positive")
	}
	if cfg.BaselineFailProb < 0 || cfg.BaselineFailProb > 1 {
		return nil, errors.New("workload: baseline failure probability out of [0,1]")
	}
	if cfg.DiurnalAmplitude < 0 || cfg.DiurnalAmplitude >= 1 {
		return nil, errors.New("workload: diurnal amplitude out of [0,1)")
	}
	if cfg.DiurnalPeakHour < 0 || cfg.DiurnalPeakHour >= 24 {
		cfg.DiurnalPeakHour = 14
	}
	if len(cfg.Buckets) == 0 {
		return nil, errors.New("workload: no buckets")
	}
	g := &Generator{cfg: cfg, sigmas: make([]float64, len(cfg.Buckets))}
	for i, b := range cfg.Buckets {
		if b.Count < 0 || b.MedianMin <= 0 || b.MeanMin < b.MedianMin || b.CapMin <= b.MedianMin {
			return nil, fmt.Errorf("workload: bucket %q has inconsistent stats", b.Name)
		}
		if len(b.GPUChoices) == 0 || len(b.GPUChoices) != len(b.GPUWeights) {
			return nil, fmt.Errorf("workload: bucket %q has bad GPU mix", b.Name)
		}
		sigma, err := fitSigma(b.MedianMin, b.MeanMin, b.CapMin)
		if err != nil {
			return nil, fmt.Errorf("workload: bucket %q: %w", b.Name, err)
		}
		g.sigmas[i] = sigma
	}
	return g, nil
}

// fitSigma solves for the lognormal sigma such that, with mu = ln(median)
// and values capped at capMin, the mean equals meanMin.
func fitSigma(median, mean, capMin float64) (float64, error) {
	mu := math.Log(median)
	target := mean
	f := func(s float64) float64 { return truncLogNormalMean(mu, s, capMin) - target }
	lo, hi := 0.01, 6.0
	if f(lo) > 0 {
		// Even a near-deterministic distribution overshoots: median ~ mean.
		return lo, nil
	}
	if f(hi) < 0 {
		return 0, fmt.Errorf("mean %v unreachable under cap %v (median %v)", mean, capMin, median)
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// truncLogNormalMean returns E[min(X, c)] for X ~ LogNormal(mu, sigma).
func truncLogNormalMean(mu, sigma, c float64) float64 {
	lnC := math.Log(c)
	phi := func(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }
	inner := math.Exp(mu+sigma*sigma/2) * phi((lnC-mu-sigma*sigma)/sigma)
	tail := c * (1 - phi((lnC-mu)/sigma))
	return inner + tail
}

// warpDepth is how many leading bisection steps of diurnalWarp.at read a
// precomputed table instead of evaluating the CDF: 2^16 float64s, 512 KB,
// built once per Jobs call.
const warpDepth = 16

// diurnalWarp maps a uniform fraction u of the day onto a time of day
// (hours in [0, 24)) distributed with density proportional to
// 1 + a*cos(2*pi*(hour-peak)/24), via 50 steps of inverse-CDF bisection.
//
// The first warpDepth steps bisect [0, 24] at the same dyadic midpoints for
// every u, and those midpoints are exact in float64, so cdf at each of them
// is one fixed value. tree holds them in heap order (root at index 1, the
// children of node i at 2i and 2i+1): the walk replays exactly the
// comparisons the plain bisection would make, and only the remaining
// 50-warpDepth steps evaluate the CDF.
type diurnalWarp struct {
	k, peak, sinPeak float64 // loop-invariant terms of cdf
	tree             []float64
}

// omega is the diurnal angular frequency, radians per hour.
const omega = 2 * math.Pi / 24

func newDiurnalWarp(a, peak float64) *diurnalWarp {
	w := &diurnalWarp{k: a / (2 * math.Pi), peak: peak, sinPeak: math.Sin(omega * peak),
		tree: make([]float64, 1<<warpDepth)}
	var fill func(i int, lo, hi float64)
	fill = func(i int, lo, hi float64) {
		if i >= len(w.tree) {
			return
		}
		mid := (lo + hi) / 2
		w.tree[i] = w.cdf(mid)
		fill(2*i, lo, mid)
		fill(2*i+1, mid, hi)
	}
	fill(1, 0, 24)
	return w
}

// cdf is the fraction of a day's submissions that arrive before hour tau.
func (w *diurnalWarp) cdf(tau float64) float64 {
	return tau/24 + w.k*(math.Sin(omega*(tau-w.peak))+w.sinPeak)
}

// at inverts cdf at u.
func (w *diurnalWarp) at(u float64) float64 {
	if u <= 0 {
		return 0
	}
	if u >= 1 {
		u = 1 - 1e-12
	}
	lo, hi := 0.0, 24.0
	for i := 1; i < len(w.tree); {
		mid := (lo + hi) / 2
		if w.tree[i] < u {
			lo, i = mid, 2*i+1
		} else {
			hi, i = mid, 2*i
		}
	}
	for step := warpDepth; step < 50; step++ {
		mid := (lo + hi) / 2
		if w.cdf(mid) < u {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// mlNames contains job-name stems whose keywords the study's classifier
// recognizes as machine learning.
var mlNames = []string{
	"train_resnet50", "bert_finetune_model", "llm_train_run", "gan_model_train",
	"train_gnn_batch", "diffusion_model_train", "rl_train_agent", "cnn_train_eval",
}

// nonMLNames contains conventional HPC job-name stems.
var nonMLNames = []string{
	"namd_md_prod", "wrf_forecast", "qchem_scf", "lammps_melt", "vasp_relax",
	"gromacs_npt", "openfoam_les", "amber_equil", "cactus_bns", "su2_cfd",
}

// userNames are the job owners "user000".."user399", formatted once.
var userNames = func() (names [400]string) {
	for i := range names {
		names[i] = fmt.Sprintf("user%03d", i)
	}
	return names
}()

// Jobs generates the full job population, sorted by submission time.
// Submission times are uniform order statistics over the period (a Poisson
// arrival process conditioned on the total count).
func (g *Generator) Jobs() []*slurmsim.Job {
	rng := randx.Derive(g.cfg.Seed, "workload")
	counts, total := make([]int, len(g.cfg.Buckets)), 0
	for bi, b := range g.cfg.Buckets {
		counts[bi] = int(math.Round(float64(b.Count) * g.cfg.Scale))
		total += counts[bi]
	}
	// One slab backs every job; the returned pointers index into it.
	slab := make([]slurmsim.Job, total)
	jobs := make([]*slurmsim.Job, 0, total)
	var warp *diurnalWarp
	if g.cfg.DiurnalAmplitude > 0 {
		warp = newDiurnalWarp(g.cfg.DiurnalAmplitude, g.cfg.DiurnalPeakHour)
	}
	for bi, b := range g.cfg.Buckets {
		n := counts[bi]
		if n == 0 {
			continue
		}
		brng := rng.Derive("bucket-" + b.Name)
		arrivals := brng.UniformOrderStats(n, g.cfg.Period.Hours())
		for _, at := range arrivals {
			if warp != nil {
				day := math.Floor(at / 24)
				at = day*24 + warp.at((at-day*24)/24)
			}
			j := &slab[len(jobs)]
			g.makeJob(j, bi, b, brng, g.cfg.Period.Start.Add(time.Duration(at*float64(time.Hour))))
			jobs = append(jobs, j)
		}
	}
	sort.Slice(jobs, func(i, k int) bool {
		if !jobs[i].Submit.Equal(jobs[k].Submit) {
			return jobs[i].Submit.Before(jobs[k].Submit)
		}
		return jobs[i].Name < jobs[k].Name
	})
	return jobs
}

// makeJob fills *j, a zeroed slab entry, with one job of bucket bi.
func (g *Generator) makeJob(j *slurmsim.Job, bi int, b BucketSpec, rng *randx.Stream, submit time.Time) {
	gpus := b.GPUChoices[rng.Categorical(b.GPUWeights)]
	durMin := rng.LogNormal(math.Log(b.MedianMin), g.sigmas[bi])
	// The scheduler applies the cap through TimeLimit (TIMEOUT state).
	ml := rng.Bool(b.MLFrac)
	var name string
	if ml {
		name = mlNames[rng.Intn(len(mlNames))]
	} else {
		name = nonMLNames[rng.Intn(len(nonMLNames))]
	}
	*j = slurmsim.Job{
		Name:        name,
		User:        userNames[rng.Intn(len(userNames))],
		Partition:   "gpuA100x4",
		GPUs:        gpus,
		Submit:      submit,
		RunDuration: time.Duration(durMin * float64(time.Minute)),
		TimeLimit:   time.Duration(b.CapMin) * time.Minute,
		ML:          ml,
	}
	if rng.Bool(g.cfg.BaselineFailProb) {
		j.FailNaturally = true
		j.NaturalExitCode = 1 + rng.Intn(125)
	}
}

// CPURecord summarizes the CPU-partition population used only for the §V-A
// success-rate comparison (1,686,696 jobs, 74.90% success).
type CPURecord struct {
	Total     int // CPU jobs in the period
	Succeeded int // of those, jobs that exited zero
}

// GenerateCPURecords returns the CPU-job population summary at the given
// scale, sampling per-job success at 74.90%.
func GenerateCPURecords(seed uint64, scale float64) CPURecord {
	const fullCount = 1686696
	const successRate = 0.7490
	n := int(math.Round(fullCount * scale))
	rng := randx.Derive(seed, "cpu-jobs")
	rec := CPURecord{Total: n}
	for i := 0; i < n; i++ {
		if rng.Bool(successRate) {
			rec.Succeeded++
		}
	}
	return rec
}
