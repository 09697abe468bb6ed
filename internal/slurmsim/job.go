// Package slurmsim simulates the Slurm workload manager at the fidelity the
// study needs: job submission, GPU placement across nodes, preemption when a
// node leaves service, terminal job states, and a sacct-style accounting
// database that the analysis pipeline ingests (§III-A).
package slurmsim

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// JobState is a Slurm terminal or live job state.
type JobState uint8

// Job states (a subset of Slurm's, matching what the study uses).
const (
	StatePending JobState = iota + 1
	StateRunning
	StateCompleted // exit 0
	StateFailed    // non-zero exit (application failure)
	StateNodeFail  // killed by node/GPU failure
	StateCancelled // cancelled (e.g. while pending at shutdown)
	StateTimeout   // hit its time limit
)

// String returns the sacct-style state label.
func (s JobState) String() string {
	switch s {
	case StatePending:
		return "PENDING"
	case StateRunning:
		return "RUNNING"
	case StateCompleted:
		return "COMPLETED"
	case StateFailed:
		return "FAILED"
	case StateNodeFail:
		return "NODE_FAIL"
	case StateCancelled:
		return "CANCELLED"
	case StateTimeout:
		return "TIMEOUT"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// ParseJobState inverts String for DB loading.
func ParseJobState(s string) (JobState, error) {
	switch s {
	case "PENDING":
		return StatePending, nil
	case "RUNNING":
		return StateRunning, nil
	case "COMPLETED":
		return StateCompleted, nil
	case "FAILED":
		return StateFailed, nil
	case "NODE_FAIL":
		return StateNodeFail, nil
	case "CANCELLED":
		return StateCancelled, nil
	case "TIMEOUT":
		return StateTimeout, nil
	default:
		return 0, fmt.Errorf("slurmsim: unknown job state %q", s)
	}
}

// parseJobStateBytes is ParseJobState for a byte field: the switch on
// string(b) compiles to allocation-free comparisons; only the error path
// copies. The case list must stay in lockstep with ParseJobState.
func parseJobStateBytes(b []byte) (JobState, error) {
	switch string(b) {
	case "PENDING":
		return StatePending, nil
	case "RUNNING":
		return StateRunning, nil
	case "COMPLETED":
		return StateCompleted, nil
	case "FAILED":
		return StateFailed, nil
	case "NODE_FAIL":
		return StateNodeFail, nil
	case "CANCELLED":
		return StateCancelled, nil
	case "TIMEOUT":
		return StateTimeout, nil
	default:
		return ParseJobState(string(b))
	}
}

// Succeeded reports whether the state counts as a success in the study's
// job-statistics analysis.
func (s JobState) Succeeded() bool { return s == StateCompleted }

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	switch s {
	case StateCompleted, StateFailed, StateNodeFail, StateCancelled, StateTimeout:
		return true
	default:
		return false
	}
}

// NodeGPUs is one node's share of a placement.
type NodeGPUs struct {
	Node string // node host name
	GPUs []int  // GPU indices allocated on the node
}

// Placement lists the nodes a job ran on and the GPU indices it held on
// each, one entry per node in ascending node-name order.
//
// A Job's placement is interned: the scheduler and LoadDB each hand every
// job that ran on the same GPUs one shared value (see placeTable), so a
// placement reached through Job.Place is read-only.
type Placement []NodeGPUs

// Nodes returns the placement's entries; a nil *Placement, a job never
// placed, has none.
func (p *Placement) Nodes() Placement {
	if p == nil {
		return nil
	}
	return *p
}

// TotalGPUs returns the number of GPUs in the placement.
func (p Placement) TotalGPUs() int {
	total := 0
	for _, e := range p {
		total += len(e.GPUs)
	}
	return total
}

// String encodes the placement as "node:i,j;node:k".
func (p Placement) String() string { return string(p.appendTo(nil)) }

// appendTo appends the String encoding to b.
func (p Placement) appendTo(b []byte) []byte {
	for i, e := range p {
		if i > 0 {
			b = append(b, ';')
		}
		b = append(b, e.Node...)
		b = append(b, ':')
		for j, idx := range e.GPUs {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(idx), 10)
		}
	}
	return b
}

// ParsePlacement inverts Placement.String. Parts may come in any order; the
// result is name-ordered, and a node listed twice keeps its last list. A GPU
// index is a decimal integer with an optional sign, after any leading spaces
// or tabs, and nothing else: the whole segment must parse.
func ParsePlacement(s string) (Placement, error) {
	if s == "" {
		return nil, nil
	}
	var p Placement
	for _, part := range strings.Split(s, ";") {
		node, list, ok := strings.Cut(part, ":")
		if !ok || node == "" {
			return nil, fmt.Errorf("slurmsim: bad placement part %q", part)
		}
		var idxs []int
		for _, f := range strings.Split(list, ",") {
			v, err := strconv.Atoi(strings.TrimLeft(f, " \t"))
			if err != nil {
				return nil, fmt.Errorf("slurmsim: bad gpu index %q: %w", f, err)
			}
			idxs = append(idxs, v)
		}
		p = append(p, NodeGPUs{Node: node, GPUs: idxs})
	}
	slices.SortStableFunc(p, compareNode)
	out := p[:0]
	for i, e := range p {
		if i+1 < len(p) && p[i+1].Node == e.Node {
			continue // a later part for the same node wins
		}
		out = append(out, e)
	}
	return out, nil
}

func compareNode(a, b NodeGPUs) int { return strings.Compare(a.Node, b.Node) }

// Time is an instant as Unix nanoseconds, the job record's timestamp. Zero
// means unset, so the zero Job has never started. A Time holds the instants
// from MinTime through MaxTime.
type Time int64

// MinTime and MaxTime bound the instants a Time holds. Zero is reserved for
// "unset", so the range starts at the first whole second after the Unix
// epoch, which a dump truncated to seconds keeps in range; int64
// nanoseconds end in 2262.
const (
	MinTime Time = Time(time.Second) // 1970-01-01T00:00:01Z
	MaxTime Time = math.MaxInt64     // 2262-04-11T23:47:16.854775807Z
)

// InRange reports whether t lies in [MinTime, MaxTime], so At(t) keeps it.
func InRange(t time.Time) bool { return !t.Before(MinTime.Time()) && !t.After(MaxTime.Time()) }

// At returns t as a Time; the zero time.Time gives the zero Time. Any other
// t must be InRange.
func At(t time.Time) Time {
	if t.IsZero() {
		return 0
	}
	return Time(t.UnixNano())
}

// Time returns t in UTC; the zero Time gives the zero time.Time.
func (t Time) Time() time.Time {
	if t == 0 {
		return time.Time{}
	}
	return time.Unix(0, int64(t)).UTC()
}

// IsZero reports whether t is unset.
func (t Time) IsZero() bool { return t == 0 }

// Sub returns t-u. An unset operand stands for the zero time.Time, as the
// record's times did when they were time.Time values.
func (t Time) Sub(u Time) time.Duration {
	if t == 0 || u == 0 {
		return t.Time().Sub(u.Time())
	}
	return time.Duration(t - u)
}

// JobText is the free text of a job record. Jobs that agree on all three
// fields share one JobText, interned by whoever builds the records (one
// table per LoadDB call or per workload population); it is never mutated
// once shared.
type JobText struct {
	Name      string // job name, carries the workload's ML marker
	User      string // synthetic submitting user
	Partition string // Slurm partition the job ran in
}

// Job is one batch job in 72 bytes. Apart from RunDuration, FailNaturally
// and NaturalExitCode, its fields mirror the Slurm accounting database
// columns the study relies on (§III-A): submit/start/end times, resources
// requested, scheduled nodes, exit status, and name.
type Job struct {
	Text      *JobText      // name, user and partition, shared; see JobText
	Place     *Placement    // nodes and device indexes the job ran on, shared; nil if never placed
	Submit    Time          // enqueue time
	Start     Time          // execution start (zero if never started)
	End       Time          // execution end (zero while running)
	TimeLimit time.Duration // requested wall-time limit

	// RunDuration is the natural runtime the job needs if undisturbed, and
	// FailNaturally + NaturalExitCode carry the workload generator's verdict
	// for jobs that end on their own (application bugs, OOM, etc. — the
	// non-GPU failures that dominate the 25% baseline failure rate). These
	// drive the simulation and are not part of the accounting record.
	RunDuration time.Duration

	ID       int32    // accounting job ID, unique per simulation
	GPUs     int32    // GPUs requested
	ExitCode int32    // process exit code as accounted
	State    JobState // terminal accounting state

	// ML marks jobs the workload generator labeled as machine-learning
	// (the study approximates this from job names).
	ML bool

	FailNaturally   bool  // see RunDuration
	NaturalExitCode uint8 // see RunDuration; a process exit status
}

// Name returns the job name ("" without a Text).
func (j *Job) Name() string {
	if j.Text == nil {
		return ""
	}
	return j.Text.Name
}

// Elapsed returns wall-clock runtime for terminal jobs.
func (j *Job) Elapsed() time.Duration {
	if !j.State.Terminal() || j.Start.IsZero() {
		return 0
	}
	return j.End.Sub(j.Start)
}

// GPUHours returns allocated GPU hours for terminal jobs.
func (j *Job) GPUHours() float64 {
	return j.Elapsed().Hours() * float64(j.GPUs)
}
