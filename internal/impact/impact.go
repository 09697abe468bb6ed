// Package impact implements Stage III of the study's pipeline: correlating
// coalesced GPU errors with user jobs (§V). It classifies jobs as
// "GPU-failed" when a GPU error on one of the job's allocated GPUs occurs
// within a twenty-second window preceding the job's failure, computes the
// per-XID job-failure probabilities of Table II, the workload statistics of
// Table III, and the §V-A job statistics.
package impact

import (
	"errors"
	"slices"
	"sort"
	"strings"
	"time"
	"unicode/utf8"

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

// DeviceIndex is the one view of the error stream that Table II and the
// lost-compute breakdown join jobs against: the period's studied events
// per device, each device's events in time order. Add folds events in, so
// a streaming caller extends one index as events seal instead of
// rebuilding it. Correlate and the lost-compute breakdown scan jobs over
// it and leave it unchanged.
type DeviceIndex struct {
	cfg     Config
	devices map[gpuKey][]xid.Event
}

// NewDeviceIndex validates cfg and returns an empty index.
func NewDeviceIndex(cfg Config) (*DeviceIndex, error) {
	if cfg.AttributionWindow <= 0 {
		return nil, errors.New("impact: non-positive attribution window")
	}
	if err := cfg.Period.Validate(); err != nil {
		return nil, err
	}
	return &DeviceIndex{cfg: cfg, devices: make(map[gpuKey][]xid.Event)}, nil
}

// Add indexes the in-period, studied events of a batch. Across all Adds,
// each device's events must arrive in time order, as Stage II's canonical
// order (coalesce.Compare) delivers them.
func (x *DeviceIndex) Add(events []xid.Event) {
	for _, ev := range events {
		if !x.cfg.Period.Contains(ev.Time.Time()) || !ev.Code.InStats() {
			continue
		}
		k := gpuKey{node: ev.Node, gpu: int(ev.GPU)}
		x.devices[k] = append(x.devices[k], ev)
	}
}

// indexEvents builds a device index over events in any order.
func indexEvents(events []xid.Event, cfg Config) (*DeviceIndex, error) {
	x, err := NewDeviceIndex(cfg)
	if err != nil {
		return nil, err
	}
	x.Add(events)
	for _, evs := range x.devices {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })
	}
	return x, nil
}

// inScope reports whether a job takes part in the join: it ran, ended, and
// overlaps the period.
func inScope(j *slurmsim.Job, period stats.Period) bool {
	return !j.Start.IsZero() && j.State.Terminal() &&
		(period.Contains(j.Start.Time()) || period.Contains(j.End.Time()))
}

// scanJob adds to encountered the codes seen on the job's GPUs while it ran
// and, if the job failed, adds to attributed those of them seen within the
// attribution window before its end. An error before the job started is
// neither, however close to the failure.
func (x *DeviceIndex) scanJob(j *slurmsim.Job, encountered, attributed map[xid.Code]bool) {
	if j.End.IsZero() {
		// An unset end stands for the zero time.Time, before every event.
		return
	}
	// The job is in scope, so its start is set too. A set slurmsim.Time is
	// Unix nanoseconds from one second after the epoch on, so it converts
	// exactly and the window start cannot overflow.
	start, end := xid.Time(j.Start), xid.Time(j.End)
	windowStart := end - xid.Time(x.cfg.AttributionWindow)
	for _, e := range j.Place.Nodes() {
		for _, gi := range e.GPUs {
			evs := x.devices[gpuKey{node: e.Node, gpu: gi}]
			// First event at or after job start.
			lo := sort.Search(len(evs), func(i int) bool {
				return evs[i].Time >= start
			})
			for _, ev := range evs[lo:] {
				if ev.Time > end {
					break
				}
				encountered[ev.Code] = true
				if !j.State.Succeeded() && ev.Time >= windowStart {
					attributed[ev.Code] = true
				}
			}
		}
	}
}

// Correlate joins job records with coalesced error events.
func Correlate(jobs []*slurmsim.Job, events []xid.Event, cfg Config) (Correlation, error) {
	x, err := indexEvents(events, cfg)
	if err != nil {
		return Correlation{}, err
	}
	return x.Correlate(jobs), nil
}

// Correlate joins job records with the indexed error events.
func (x *DeviceIndex) Correlate(jobs []*slurmsim.Job) Correlation {
	// The per-job classification is embarrassingly parallel over the (read
	// only) index: shard the job list, tally locally, sum the tallies.
	workers := parallel.Resolve(x.cfg.Workers)
	if max := len(jobs) / minJobsPerShard; workers > max {
		workers = max
	}
	if workers < 1 {
		workers = 1
	}
	parts := make([]corTally, workers)
	// The shards never fail, so neither does the fan-out.
	_ = parallel.ForEach(workers, workers, func(s int) error {
		lo, hi := s*len(jobs)/workers, (s+1)*len(jobs)/workers
		parts[s] = x.correlateJobs(jobs[lo:hi])
		return nil
	})
	for _, p := range parts[1:] {
		parts[0].merge(p)
	}
	return parts[0].correlation()
}

// minJobsPerShard is the smallest job-shard size worth a goroutine.
const minJobsPerShard = 1 << 12

// corTally is Table II's per-job step and its counts over the jobs added
// so far. encountered and attributed are one job's scratch.
type corTally struct {
	encounters     map[xid.Code]int
	gpuFailed      map[xid.Code]int
	totalGPUFailed int
	encounteredAny int

	encountered, attributed map[xid.Code]bool
}

func newCorTally() corTally {
	return corTally{
		encounters:  make(map[xid.Code]int),
		gpuFailed:   make(map[xid.Code]int),
		encountered: make(map[xid.Code]bool),
		attributed:  make(map[xid.Code]bool),
	}
}

// add classifies one job against the index: an in-scope job counts under
// every code it encountered, and as GPU-failed under every code attributed
// to its failure.
func (t *corTally) add(x *DeviceIndex, j *slurmsim.Job) {
	if !inScope(j, x.cfg.Period) {
		return
	}
	clear(t.encountered)
	clear(t.attributed)
	x.scanJob(j, t.encountered, t.attributed)
	if len(t.encountered) > 0 {
		t.encounteredAny++
	}
	for c := range t.encountered {
		t.encounters[c]++
	}
	if len(t.attributed) > 0 {
		t.totalGPUFailed++
		for c := range t.attributed {
			t.gpuFailed[c]++
		}
	}
}

// merge adds another tally's counts into t.
func (t *corTally) merge(o corTally) {
	for c, n := range o.encounters {
		t.encounters[c] += n
	}
	for c, n := range o.gpuFailed {
		t.gpuFailed[c] += n
	}
	t.totalGPUFailed += o.totalGPUFailed
	t.encounteredAny += o.encounteredAny
}

// correlation derives Table II from the counts, one row per encountered
// code in code order.
func (t *corTally) correlation() Correlation {
	out := Correlation{TotalGPUFailedJobs: t.totalGPUFailed, EncounteredAny: t.encounteredAny}
	codes := make([]xid.Code, 0, len(t.encounters))
	for c := range t.encounters {
		codes = append(codes, c)
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	for _, c := range codes {
		row := TableIIRow{
			Code:             c,
			JobsEncountering: t.encounters[c],
			GPUFailedJobs:    t.gpuFailed[c],
		}
		if row.JobsEncountering > 0 {
			row.FailureProb = float64(row.GPUFailedJobs) / float64(row.JobsEncountering)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// correlateJobs classifies one shard of the job list against the index.
func (x *DeviceIndex) correlateJobs(jobs []*slurmsim.Job) corTally {
	tally := newCorTally()
	for _, j := range jobs {
		tally.add(x, j)
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
// both go through scanJob over the same DeviceIndex. A job
// attributed to several codes (e.g. a PMU error and its propagated MMU
// error) is counted under each, so rows are not additive; TotalGPUHours
// counts each job once.
func LostCompute(jobs []*slurmsim.Job, events []xid.Event, cfg Config) ([]LostComputeRow, float64, error) {
	x, err := indexEvents(events, cfg)
	if err != nil {
		return nil, 0, err
	}
	rows, total := x.lostCompute(jobs)
	return rows, total, nil
}

// lostCompute is the lost-compute breakdown over the indexed error events.
func (x *DeviceIndex) lostCompute(jobs []*slurmsim.Job) ([]LostComputeRow, float64) {
	perCode := make(map[xid.Code]*LostComputeRow)
	var total float64
	encountered := make(map[xid.Code]bool)
	attributed := make(map[xid.Code]bool)
	for _, j := range jobs {
		if !inScope(j, x.cfg.Period) || j.State.Succeeded() {
			continue
		}
		clear(encountered)
		clear(attributed)
		x.scanJob(j, encountered, attributed)
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
	return rows, total
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
// indicative of machine-learning workloads. All are lowercase ASCII.
var mlKeywords = []string{
	"train", "model", "bert", "llm", "gan", "diffusion", "cnn", "gnn",
	"torch", "tensorflow", "finetune", "rl_",
}

// mlByFirst lists, for each byte, the keywords that start with it.
var mlByFirst = func() (t [256][]string) {
	for _, kw := range mlKeywords {
		t[kw[0]] = append(t[kw[0]], kw)
	}
	return t
}()

// ClassifyML approximates the study's ML labeling from the job name: it
// reports whether the lowercased name contains any of mlKeywords. One scan
// matches ASCII case-insensitively; a name with a non-ASCII byte is lowered
// with strings.ToLower first, so Unicode folds such as U+0130 → "i" match
// exactly as a full lowering would.
func ClassifyML(name string) bool {
	for i := 0; i < len(name); i++ {
		if name[i] >= utf8.RuneSelf {
			name = strings.ToLower(name)
			break
		}
	}
	for i := 0; i < len(name); i++ {
		for _, kw := range mlByFirst[lowerASCII(name[i])] {
			if hasPrefixFoldASCII(name[i:], kw) {
				return true
			}
		}
	}
	return false
}

// lowerASCII lowers an ASCII capital letter and returns any other byte as is.
func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

// hasPrefixFoldASCII reports whether s begins with the lowercase keyword kw,
// ignoring ASCII case in s.
func hasPrefixFoldASCII(s, kw string) bool {
	if len(s) < len(kw) {
		return false
	}
	for i := 0; i < len(kw); i++ {
		if lowerASCII(s[i]) != kw[i] {
			return false
		}
	}
	return true
}

// TableIIIRow is one row of Table III: one GPU-count bucket of every
// started, terminal job, whatever its outcome.
type TableIIIRow struct {
	Bucket         string  // GPU-count bucket label, e.g. "2-4"
	Count          int     // started, terminal jobs in the bucket
	Pct            float64 // Count as a share of all started, terminal jobs
	MeanMin        float64 // mean elapsed minutes per job
	P50Min         float64 // median elapsed minutes per job
	P99Min         float64 // p99 elapsed minutes per job
	MLGPUHoursK    float64 // GPU hours (thousands) of the bucket's ML jobs
	NonMLGPUHoursK float64 // GPU hours (thousands) of its other jobs
}

// bucketEdges defines the Table III GPU-count buckets; bucket i covers
// (edge[i-1], edge[i]].
var bucketEdges = [...]int{1, 4, 8, 32, 64, 128, 256}

var bucketNames = [len(bucketEdges) + 1]string{"1", "2-4", "4-8", "8-32", "32-64", "64-128", "128-256", "256+"}

// bucketOf returns the Table III bucket index for a GPU count.
func bucketOf(gpus int) int {
	for i, edge := range bucketEdges {
		if gpus <= edge {
			return i
		}
	}
	return len(bucketEdges)
}

// tableIIICounted reports whether TableIII counts the job: started and
// terminal.
func tableIIICounted(j *slurmsim.Job) bool {
	return !j.Start.IsZero() && j.State.Terminal()
}

// TableIII computes the job-distribution table over started jobs. It makes
// two passes over jobs so that one buffer of exactly the counted-job size
// holds every bucket's minutes: the first counts each bucket and gives each
// its span of the buffer, the second runs Table III's per-job step, which
// fills each span, never past its end. Each bucket is summarized in place.
func TableIII(jobs []*slurmsim.Job) []TableIIIRow {
	var counts [len(bucketNames)]int
	for _, j := range jobs {
		if tableIIICounted(j) {
			counts[bucketOf(int(j.GPUs))]++
		}
	}
	var f tableIIIFold
	buf := make([]float64, sum(counts[:]))
	for i, n := range counts {
		f.minutes[i], buf = buf[:0:n], buf[n:]
	}
	for _, j := range jobs {
		f.add(j)
	}
	return f.rows()
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// minutesBlock is how many minutes a tableIIIFold bucket holds per block
// when its slice was not sized up front.
const minutesBlock = 1024

// tableIIIFold is Table III's per-job step and its state: each counted
// job's elapsed minutes go into its bucket's slice, in any order, and its
// GPU hours into the bucket's ML or non-ML sum. A bucket whose slice is
// full moves it to full and carries on in a new block, so a fold that was
// not sized up front never copies minutes while jobs arrive.
type tableIIIFold struct {
	minutes   [len(bucketNames)][]float64
	full      [len(bucketNames)][][]float64 // each bucket's full blocks
	ml, nonML [len(bucketNames)]float64
}

// add runs the per-job step on one job.
func (f *tableIIIFold) add(j *slurmsim.Job) {
	if !tableIIICounted(j) {
		return
	}
	bi := bucketOf(int(j.GPUs))
	m := f.minutes[bi]
	if len(m) == cap(m) {
		if len(m) > 0 {
			f.full[bi] = append(f.full[bi], m)
		}
		m = make([]float64, 0, minutesBlock)
	}
	f.minutes[bi] = append(m, j.Elapsed().Minutes())
	if ClassifyML(j.Name()) {
		f.ml[bi] += j.GPUHours()
	} else {
		f.nonML[bi] += j.GPUHours()
	}
}

// rows summarizes each bucket. A bucket held in one slice is sorted in
// place; one spread over blocks is gathered into a buffer that every such
// bucket reuses. stats.Summarize sorts before it sums, so the order the
// minutes arrived in does not reach the rows.
func (f *tableIIIFold) rows() []TableIIIRow {
	var count [len(bucketNames)]int
	for i, m := range f.minutes {
		count[i] = len(m)
		for _, b := range f.full[i] {
			count[i] += len(b)
		}
	}
	total := sum(count[:])
	var gather []float64
	rows := make([]TableIIIRow, 0, len(bucketNames))
	for i, name := range bucketNames {
		m := f.minutes[i]
		if len(f.full[i]) > 0 {
			if gather == nil {
				gather = make([]float64, 0, slices.Max(count[:]))
			}
			gather = gather[:0]
			for _, b := range f.full[i] {
				gather = append(gather, b...)
			}
			m = append(gather, m...)
		}
		s := stats.Summarize(m)
		row := TableIIIRow{
			Bucket:         name,
			Count:          s.N,
			MeanMin:        s.Mean,
			P50Min:         s.P50,
			P99Min:         s.P99,
			MLGPUHoursK:    f.ml[i] / 1000,
			NonMLGPUHoursK: f.nonML[i] / 1000,
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
	var c jobCounts
	for _, j := range jobs {
		c.add(j)
	}
	return c.stats(cpuTotal, cpuSucceeded)
}

// jobCounts is the §V-A statistics' per-job step and its counts.
type jobCounts struct {
	total, succeeded, started int // terminal jobs; successes; started ones
	single, small, large      int // started jobs on 1, 2-4 and >4 GPUs
}

// add counts one job.
func (c *jobCounts) add(j *slurmsim.Job) {
	if !j.State.Terminal() {
		return
	}
	c.total++
	if j.State.Succeeded() {
		c.succeeded++
	}
	if j.Start.IsZero() {
		return
	}
	c.started++
	switch {
	case j.GPUs == 1:
		c.single++
	case j.GPUs <= 4:
		c.small++
	default:
		c.large++
	}
}

// stats derives the summary from the counts and the CPU partition's.
func (c jobCounts) stats(cpuTotal, cpuSucceeded int) JobStats {
	st := JobStats{GPUTotal: c.total, GPUSucceeded: c.succeeded, CPUTotal: cpuTotal, CPUSucceeded: cpuSucceeded}
	if st.GPUTotal > 0 {
		st.GPUSuccessRate = float64(st.GPUSucceeded) / float64(st.GPUTotal)
	}
	if st.CPUTotal > 0 {
		st.CPUSuccessRate = float64(st.CPUSucceeded) / float64(st.CPUTotal)
	}
	if c.started > 0 {
		st.ShareSingleGPU = float64(c.single) / float64(c.started)
		st.Share2to4 = float64(c.small) / float64(c.started)
		st.ShareOver4 = float64(c.large) / float64(c.started)
	}
	return st
}
