// Package impact implements Stage III of the study's pipeline: correlating
// coalesced GPU errors with user jobs (§V). It classifies jobs as
// "GPU-failed" when a GPU error on one of the job's allocated GPUs occurs
// within a twenty-second window preceding the job's failure, computes the
// per-XID job-failure probabilities of Table II, the workload statistics of
// Table III, and the §V-A job statistics.
package impact

import (
	"errors"
	"sort"
	"strings"
	"time"

	"gpuresilience/internal/parallel"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/stats"
	"gpuresilience/internal/xid"
)

// DefaultAttributionWindow is the paper's 20-second attribution window.
const DefaultAttributionWindow = 20 * time.Second

// Config parameterizes the correlation.
type Config struct {
	// AttributionWindow is how far before a job failure an error may occur
	// and still be considered a contributor.
	AttributionWindow time.Duration
	// Period restricts the analysis (the study correlates only in the
	// operational period).
	Period stats.Period
	// Workers bounds the parallelism of the job-correlation loop: 0 means
	// GOMAXPROCS, 1 forces the sequential path. The output is
	// worker-count-invariant (per-job classifications are independent and
	// the merged tallies are sums).
	Workers int
}

// DefaultConfig returns the paper's settings for the given period.
func DefaultConfig(period stats.Period) Config {
	return Config{AttributionWindow: DefaultAttributionWindow, Period: period}
}

// TableIIRow is one row of Table II.
type TableIIRow struct {
	Code             xid.Code // the Xid the row correlates
	JobsEncountering int      // jobs that saw this XID on an allocated GPU while running
	GPUFailedJobs    int      // of those, jobs whose failure had this XID in the attribution window
	FailureProb      float64  // GPUFailedJobs / JobsEncountering
}

// Correlation is the Stage III output.
type Correlation struct {
	Rows []TableIIRow // one row per studied Xid, in code order
	// TotalGPUFailedJobs counts distinct jobs classified GPU-failed.
	TotalGPUFailedJobs int
	// EncounteredAny counts distinct running jobs that saw any studied XID.
	EncounteredAny int
}

// gpuKey indexes events by device.
type gpuKey struct {
	node string
	gpu  int
}

// deviceIndex validates cfg and indexes the in-period, studied events per
// device, sorted by time: the one view of the error stream that Table II
// and the lost-compute breakdown both join jobs against.
func deviceIndex(events []xid.Event, cfg Config) (map[gpuKey][]xid.Event, error) {
	if cfg.AttributionWindow <= 0 {
		return nil, errors.New("impact: non-positive attribution window")
	}
	if err := cfg.Period.Validate(); err != nil {
		return nil, err
	}
	index := make(map[gpuKey][]xid.Event)
	for _, ev := range events {
		if !cfg.Period.Contains(ev.Time) || !ev.Code.InStats() {
			continue
		}
		k := gpuKey{node: ev.Node, gpu: ev.GPU}
		index[k] = append(index[k], ev)
	}
	for _, evs := range index {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
	}
	return index, nil
}

// inScope reports whether a job takes part in the join: it ran, ended, and
// overlaps the period.
func inScope(j *slurmsim.Job, period stats.Period) bool {
	return !j.Start.IsZero() && j.State.Terminal() &&
		(period.Contains(j.Start) || period.Contains(j.End))
}

// scanJob adds to encountered the codes seen on the job's GPUs while it ran
// and, if the job failed, adds to attributed those of them seen within the
// attribution window before its end. An error before the job started is
// neither, however close to the failure.
func scanJob(j *slurmsim.Job, index map[gpuKey][]xid.Event, window time.Duration, encountered, attributed map[xid.Code]bool) {
	windowStart := j.End.Add(-window)
	for _, e := range j.Place {
		for _, gi := range e.GPUs {
			evs := index[gpuKey{node: e.Node, gpu: gi}]
			// First event at or after job start.
			lo := sort.Search(len(evs), func(i int) bool {
				return !evs[i].Time.Before(j.Start)
			})
			for _, ev := range evs[lo:] {
				if ev.Time.After(j.End) {
					break
				}
				encountered[ev.Code] = true
				if !j.State.Succeeded() && !ev.Time.Before(windowStart) {
					attributed[ev.Code] = true
				}
			}
		}
	}
}

// Correlate joins job records with coalesced error events.
func Correlate(jobs []*slurmsim.Job, events []xid.Event, cfg Config) (Correlation, error) {
	index, err := deviceIndex(events, cfg)
	if err != nil {
		return Correlation{}, err
	}

	// The per-job classification is embarrassingly parallel over the (read
	// only) index: shard the job list, tally locally, sum the tallies.
	workers := parallel.Resolve(cfg.Workers)
	if max := len(jobs) / minJobsPerShard; workers > max {
		workers = max
	}
	if workers < 1 {
		workers = 1
	}
	parts := make([]corTally, workers)
	err = parallel.ForEach(workers, workers, func(s int) error {
		lo, hi := s*len(jobs)/workers, (s+1)*len(jobs)/workers
		parts[s] = correlateJobs(jobs[lo:hi], index, cfg)
		return nil
	})
	if err != nil {
		return Correlation{}, err
	}
	encounters := make(map[xid.Code]int)
	gpuFailed := make(map[xid.Code]int)
	var totalGPUFailed, encounteredAny int
	for _, p := range parts {
		for c, n := range p.encounters {
			encounters[c] += n
		}
		for c, n := range p.gpuFailed {
			gpuFailed[c] += n
		}
		totalGPUFailed += p.totalGPUFailed
		encounteredAny += p.encounteredAny
	}

	var out Correlation
	out.TotalGPUFailedJobs = totalGPUFailed
	out.EncounteredAny = encounteredAny
	codes := make([]xid.Code, 0, len(encounters))
	for c := range encounters {
		codes = append(codes, c)
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	for _, c := range codes {
		row := TableIIRow{
			Code:             c,
			JobsEncountering: encounters[c],
			GPUFailedJobs:    gpuFailed[c],
		}
		if row.JobsEncountering > 0 {
			row.FailureProb = float64(row.GPUFailedJobs) / float64(row.JobsEncountering)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// minJobsPerShard is the smallest job-shard size worth a goroutine.
const minJobsPerShard = 1 << 12

// corTally accumulates one shard's correlation counts.
type corTally struct {
	encounters     map[xid.Code]int
	gpuFailed      map[xid.Code]int
	totalGPUFailed int
	encounteredAny int
}

// correlateJobs classifies one shard of the job list against the device
// index.
func correlateJobs(jobs []*slurmsim.Job, index map[gpuKey][]xid.Event, cfg Config) corTally {
	tally := corTally{
		encounters: make(map[xid.Code]int),
		gpuFailed:  make(map[xid.Code]int),
	}
	encountered := make(map[xid.Code]bool)
	attributed := make(map[xid.Code]bool)
	for _, j := range jobs {
		if !inScope(j, cfg.Period) {
			continue
		}
		clear(encountered)
		clear(attributed)
		scanJob(j, index, cfg.AttributionWindow, encountered, attributed)
		if len(encountered) > 0 {
			tally.encounteredAny++
		}
		for c := range encountered {
			tally.encounters[c]++
		}
		if len(attributed) > 0 {
			tally.totalGPUFailed++
			for c := range attributed {
				tally.gpuFailed[c]++
			}
		}
	}
	return tally
}

// LostComputeRow attributes destroyed GPU hours to an error type.
type LostComputeRow struct {
	Code         xid.Code // the attributed error code
	Jobs         int      // GPU-failed jobs attributed to this code
	LostGPUHours float64  // their elapsed GPU time
}

// LostCompute breaks down the GPU hours destroyed by GPU-failed jobs per
// attributed error code (§V-C's "compute time lost to failed jobs"). Its
// jobs and codes are exactly Correlate's GPU-failed jobs and attributions:
// both go through scanJob over the same device index. A job
// attributed to several codes (e.g. a PMU error and its propagated MMU
// error) is counted under each, so rows are not additive; TotalGPUHours
// counts each job once.
func LostCompute(jobs []*slurmsim.Job, events []xid.Event, cfg Config) ([]LostComputeRow, float64, error) {
	index, err := deviceIndex(events, cfg)
	if err != nil {
		return nil, 0, err
	}
	perCode := make(map[xid.Code]*LostComputeRow)
	var total float64
	encountered := make(map[xid.Code]bool)
	attributed := make(map[xid.Code]bool)
	for _, j := range jobs {
		if !inScope(j, cfg.Period) || j.State.Succeeded() {
			continue
		}
		clear(encountered)
		clear(attributed)
		scanJob(j, index, cfg.AttributionWindow, encountered, attributed)
		if len(attributed) == 0 {
			continue
		}
		hours := j.GPUHours()
		total += hours
		for c := range attributed {
			row, ok := perCode[c]
			if !ok {
				row = &LostComputeRow{Code: c}
				perCode[c] = row
			}
			row.Jobs++
			row.LostGPUHours += hours
		}
	}
	rows := make([]LostComputeRow, 0, len(perCode))
	for _, r := range perCode {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].LostGPUHours != rows[j].LostGPUHours {
			return rows[i].LostGPUHours > rows[j].LostGPUHours
		}
		return rows[i].Code < rows[j].Code
	})
	return rows, total, nil
}

// Row returns the Table II row for a code, if present.
func (c Correlation) Row(code xid.Code) (TableIIRow, bool) {
	for _, r := range c.Rows {
		if r.Code == code {
			return r, true
		}
	}
	return TableIIRow{}, false
}

// mlKeywords are the job-name substrings the study's classifier treats as
// indicative of machine-learning workloads.
var mlKeywords = []string{
	"train", "model", "bert", "llm", "gan", "diffusion", "cnn", "gnn",
	"torch", "tensorflow", "finetune", "rl_",
}

// ClassifyML approximates the study's ML labeling from the job name.
func ClassifyML(name string) bool {
	lower := strings.ToLower(name)
	for _, kw := range mlKeywords {
		if strings.Contains(lower, kw) {
			return true
		}
	}
	return false
}

// TableIIIRow is one row of Table III.
type TableIIIRow struct {
	Bucket         string  // GPU-count bucket label, e.g. "2-4"
	Count          int     // GPU-failed jobs in the bucket
	Pct            float64 // Count as a share of all GPU-failed jobs
	MeanMin        float64 // mean lost minutes per failed job
	P50Min         float64 // median lost minutes per failed job
	P99Min         float64 // p99 lost minutes per failed job
	MLGPUHoursK    float64 // lost GPU hours (thousands) on ML partitions
	NonMLGPUHoursK float64 // lost GPU hours (thousands) elsewhere
}

// bucketEdges defines the Table III GPU-count buckets; bucket i covers
// (edge[i-1], edge[i]].
var bucketEdges = []int{1, 4, 8, 32, 64, 128, 256}

var bucketNames = []string{"1", "2-4", "4-8", "8-32", "32-64", "64-128", "128-256", "256+"}

// bucketOf returns the Table III bucket index for a GPU count.
func bucketOf(gpus int) int {
	for i, edge := range bucketEdges {
		if gpus <= edge {
			return i
		}
	}
	return len(bucketEdges)
}

// TableIII computes the job-distribution table over started jobs.
func TableIII(jobs []*slurmsim.Job) []TableIIIRow {
	durs := make([][]float64, len(bucketNames))
	mlHours := make([]float64, len(bucketNames))
	nonMLHours := make([]float64, len(bucketNames))
	total := 0
	for _, j := range jobs {
		if j.Start.IsZero() || !j.State.Terminal() {
			continue
		}
		bi := bucketOf(j.GPUs)
		minutes := j.Elapsed().Minutes()
		durs[bi] = append(durs[bi], minutes)
		if ClassifyML(j.Name) {
			mlHours[bi] += j.GPUHours()
		} else {
			nonMLHours[bi] += j.GPUHours()
		}
		total++
	}
	rows := make([]TableIIIRow, 0, len(bucketNames))
	for i, name := range bucketNames {
		s := stats.Summarize(durs[i])
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

// JobStats is the §V-A summary.
type JobStats struct {
	GPUTotal       int     // GPU jobs that ran in the period
	GPUSucceeded   int     // of those, jobs that completed successfully
	GPUSuccessRate float64 // GPUSucceeded / GPUTotal
	CPUTotal       int     // CPU-only jobs that ran in the period
	CPUSucceeded   int     // of those, jobs that completed successfully
	CPUSuccessRate float64 // CPUSucceeded / CPUTotal
	// Shares of started GPU jobs by GPU count, as the paper reports them.
	ShareSingleGPU float64 // 1 GPU
	Share2to4      float64 // 2-4 GPUs
	ShareOver4     float64 // >4 GPUs
}

// ComputeJobStats summarizes GPU job success and GPU-count shares; CPU
// counts come from the CPU-partition record.
func ComputeJobStats(jobs []*slurmsim.Job, cpuTotal, cpuSucceeded int) JobStats {
	st := JobStats{CPUTotal: cpuTotal, CPUSucceeded: cpuSucceeded}
	started := 0
	var single, small, large int
	for _, j := range jobs {
		if !j.State.Terminal() {
			continue
		}
		st.GPUTotal++
		if j.State.Succeeded() {
			st.GPUSucceeded++
		}
		if j.Start.IsZero() {
			continue
		}
		started++
		switch {
		case j.GPUs == 1:
			single++
		case j.GPUs <= 4:
			small++
		default:
			large++
		}
	}
	if st.GPUTotal > 0 {
		st.GPUSuccessRate = float64(st.GPUSucceeded) / float64(st.GPUTotal)
	}
	if st.CPUTotal > 0 {
		st.CPUSuccessRate = float64(st.CPUSucceeded) / float64(st.CPUTotal)
	}
	if started > 0 {
		st.ShareSingleGPU = float64(single) / float64(started)
		st.Share2to4 = float64(small) / float64(started)
		st.ShareOver4 = float64(large) / float64(started)
	}
	return st
}
