package impact

import "gpuresilience/internal/slurmsim"

// JobPass is Stage III's one pass over the job database: each job goes once
// through the per-job step of every job table (Table II against a complete
// DeviceIndex, Table III and the §V-A statistics) and is then dropped, so a
// caller streaming the database keeps no job records. The tables equal
// DeviceIndex.Correlate, TableIII and ComputeJobStats over the same jobs in
// the same order.
//
// A JobPass reads its index, so events added to the index after the pass
// starts reach only the jobs added after them. It is not safe for
// concurrent use.
type JobPass struct {
	index *DeviceIndex
	jobs  int
	cor   corTally
	t3    tableIIIFold
	st    jobCounts
}

// NewJobPass returns an empty pass over the index.
func (x *DeviceIndex) NewJobPass() *JobPass {
	return &JobPass{index: x, cor: newCorTally()}
}

// Add runs the per-job step on one job. j is not kept, so a caller may
// reuse it once Add returns.
func (p *JobPass) Add(j *slurmsim.Job) {
	p.jobs++
	p.cor.add(p.index, j)
	p.t3.add(j)
	p.st.add(j)
}

// Jobs returns how many jobs were added.
func (p *JobPass) Jobs() int { return p.jobs }

// Correlation returns Table II over the jobs added.
func (p *JobPass) Correlation() Correlation { return p.cor.correlation() }

// TableIII returns Table III over the jobs added.
func (p *JobPass) TableIII() []TableIIIRow { return p.t3.rows() }

// JobStats returns the §V-A statistics over the jobs added, with the CPU
// partition's counts.
func (p *JobPass) JobStats(cpuTotal, cpuSucceeded int) JobStats {
	return p.st.stats(cpuTotal, cpuSucceeded)
}
