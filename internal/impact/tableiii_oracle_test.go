package impact

import (
	"sort"
	"strings"
	"testing"
	"time"

	"gpuresilience/internal/randx"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/stats"
	"gpuresilience/internal/workload"
)

// tableIIIOracle is the historical Table III body: per-bucket append, then
// a summary that copies each bucket before sorting it. TableIII must match
// it bit for bit.
func tableIIIOracle(jobs []*slurmsim.Job) []TableIIIRow {
	durs := make([][]float64, len(bucketNames))
	mlHours := make([]float64, len(bucketNames))
	nonMLHours := make([]float64, len(bucketNames))
	total := 0
	for _, j := range jobs {
		if j.Start.IsZero() || !j.State.Terminal() {
			continue
		}
		bi := bucketOf(j.GPUs)
		durs[bi] = append(durs[bi], j.Elapsed().Minutes())
		if classifyMLOracle(j.Name) {
			mlHours[bi] += j.GPUHours()
		} else {
			nonMLHours[bi] += j.GPUHours()
		}
		total++
	}
	rows := make([]TableIIIRow, 0, len(bucketNames))
	for i, name := range bucketNames {
		s := summarizeCopyOracle(durs[i])
		row := TableIIIRow{
			Bucket:         name,
			Count:          s.N,
			MeanMin:        s.Mean,
			P50Min:         s.P50,
			P99Min:         s.P99,
			MLGPUHoursK:    mlHours[i] / 1000,
			NonMLGPUHoursK: nonMLHours[i] / 1000,
		}
		if total > 0 {
			row.Pct = 100 * float64(s.N) / float64(total)
		}
		rows = append(rows, row)
	}
	return rows
}

// summarizeCopyOracle is the historical stats.Summarize, which sorted a
// copy of its argument.
func summarizeCopyOracle(xs []float64) stats.Summary {
	if len(xs) == 0 {
		return stats.Summary{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	return stats.Summary{
		N:    len(sorted),
		Mean: sum / float64(len(sorted)),
		P50:  stats.Percentile(sorted, 50),
		P99:  stats.Percentile(sorted, 99),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
		Sum:  sum,
	}
}

// classifyMLOracle is the historical ClassifyML: lower the whole name, then
// one substring scan per keyword.
func classifyMLOracle(name string) bool {
	lower := strings.ToLower(name)
	for _, kw := range mlKeywords {
		if strings.Contains(lower, kw) {
			return true
		}
	}
	return false
}

// bucketGPUs holds GPU counts for each Table III bucket, both edges where
// a bucket has two.
var bucketGPUs = [len(bucketNames)][]int{
	{1}, {2, 4}, {5, 8}, {9, 32}, {33, 64}, {65, 128}, {129, 256}, {257, 448},
}

// oracleNames mixes ML and non-ML names in several cases, with and without
// non-ASCII bytes.
var oracleNames = []string{
	"train_resnet50", "TRAIN_x", "Bert", "LLM_run", "Rl_agent", "namd_md_prod",
	"WRF_forecast", "traİn", "ſ", "", "job", "post_finetune", "TensorFlow",
}

// randomJobs draws n jobs over the buckets in use (GPU counts from
// bucketGPUs), in every job state, some unstarted, with durations that
// repeat and include zero.
func randomJobs(rng *randx.Stream, n int, use []int) []*slurmsim.Job {
	states := []slurmsim.JobState{
		slurmsim.StatePending, slurmsim.StateRunning, slurmsim.StateCompleted,
		slurmsim.StateFailed, slurmsim.StateNodeFail, slurmsim.StateCancelled,
		slurmsim.StateTimeout,
	}
	shared := []time.Duration{0, time.Minute, 90 * time.Second, 48 * time.Hour}
	jobs := make([]*slurmsim.Job, n)
	for i := range jobs {
		choices := bucketGPUs[use[rng.Intn(len(use))]]
		j := &slurmsim.Job{
			ID:    i + 1,
			Name:  oracleNames[rng.Intn(len(oracleNames))],
			GPUs:  choices[rng.Intn(len(choices))],
			State: states[rng.Intn(len(states))],
		}
		if !rng.Bool(0.15) {
			j.Start = base.Add(time.Duration(rng.Int63n(int64(90 * 24 * time.Hour))))
			dur := shared[rng.Intn(len(shared))]
			if rng.Bool(0.5) {
				dur = time.Duration(rng.Int63n(int64(72 * time.Hour)))
			}
			j.End = j.Start.Add(dur)
		}
		jobs[i] = j
	}
	return jobs
}

// TestTableIIIMatchesReference holds TableIII's two-pass, one-buffer body
// to the historical append-and-copy body, field by field with ==: the same
// multiset per bucket, sorted and summed the same way, gives bit-identical
// rows.
func TestTableIIIMatchesReference(t *testing.T) {
	rng := randx.NewStream(19)
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for trial := 0; trial < 200; trial++ {
		use := all
		if trial%2 == 1 { // leave some buckets empty
			use = nil
			for _, bi := range all {
				if rng.Bool(0.4) {
					use = append(use, bi)
				}
			}
			if len(use) == 0 {
				use = []int{len(bucketNames) - 1}
			}
		}
		n := rng.Intn(400)
		if trial == 2 {
			n = 0
		}
		jobs := randomJobs(rng, n, use)
		got, want := TableIII(jobs), tableIIIOracle(jobs)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d rows, oracle %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (buckets %v), row %d:\n got  %+v\n want %+v", trial, use, i, got[i], want[i])
			}
		}
	}
}

// TestTableIIIAllocs pins TableIII to its two allocations, the minutes
// buffer and the rows, over ASCII names of any case. Every workload name is
// ASCII; only a non-ASCII name costs a strings.ToLower copy.
func TestTableIIIAllocs(t *testing.T) {
	jobs := randomJobs(randx.NewStream(3), 2000, []int{0, 1, 2, 3, 4, 5, 6, 7})
	ascii := []string{"TRAIN_x", "Bert", "namd_md_prod", "Rl_agent", "job"}
	for i, j := range jobs {
		j.Name = ascii[i%len(ascii)]
	}
	if n := testing.AllocsPerRun(20, func() { TableIII(jobs) }); n > 2 {
		t.Fatalf("TableIII allocates %v times per call, want <= 2", n)
	}
}

// workloadNames returns the distinct job names the workload generator
// draws, which are its ML and non-ML name stems.
func workloadNames(tb testing.TB) []string {
	g, err := workload.NewGenerator(workload.DefaultConfig(1, opPeriod, 0.002))
	if err != nil {
		tb.Fatal(err)
	}
	seen := map[string]bool{}
	var names []string
	for _, j := range g.Jobs() {
		if !seen[j.Name] {
			seen[j.Name] = true
			names = append(names, j.Name)
		}
	}
	sort.Strings(names)
	return names
}

// FuzzClassifyMLEquivalence holds the one-scan classifier to the historical
// ToLower-then-Contains body on arbitrary names.
func FuzzClassifyMLEquivalence(f *testing.F) {
	for _, name := range []string{"TRAIN_x", "Bert", "traİn", "ſ", "rl_", "", "job_finetune", "x\xffGAN"} {
		f.Add(name)
	}
	for _, name := range workloadNames(f) {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		if got, want := ClassifyML(name), classifyMLOracle(name); got != want {
			t.Fatalf("ClassifyML(%q) = %v, oracle %v", name, got, want)
		}
	})
}
