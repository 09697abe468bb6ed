// Package slurmsim simulates the Slurm workload manager at the fidelity the
// study needs: job submission, GPU placement across nodes, preemption when a
// node leaves service, terminal job states, and a sacct-style accounting
// database that the analysis pipeline ingests (§III-A).
package slurmsim

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// JobState is a Slurm terminal or live job state.
type JobState int

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
type Placement []NodeGPUs

// TotalGPUs returns the number of GPUs in the placement.
func (p Placement) TotalGPUs() int {
	total := 0
	for _, e := range p {
		total += len(e.GPUs)
	}
	return total
}

// String encodes the placement as "node:i,j;node:k".
func (p Placement) String() string {
	var b []byte
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
	return string(b)
}

// ParsePlacement inverts Placement.String. Parts may come in any order; the
// result is name-ordered, and a node listed twice keeps its last list.
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
			var v int
			if _, err := fmt.Sscanf(f, "%d", &v); err != nil {
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

// Job is one batch job. Fields through ExitCode mirror the Slurm accounting
// database columns the study relies on (§III-A): submit/start/end times,
// resources requested, scheduled nodes, exit status, and name.
type Job struct {
	ID        int           // accounting job ID, unique per simulation
	Name      string        // job name, carries the workload's ML marker
	User      string        // synthetic submitting user
	Partition string        // Slurm partition the job ran in
	GPUs      int           // GPUs requested
	Submit    time.Time     // enqueue time
	Start     time.Time     // execution start (zero if never started)
	End       time.Time     // execution end (zero while running)
	TimeLimit time.Duration // requested wall-time limit
	State     JobState      // terminal accounting state
	ExitCode  int           // process exit code as accounted
	Place     Placement     // nodes and device indexes the job ran on

	// RunDuration is the natural runtime the job needs if undisturbed, and
	// FailNaturally + NaturalExitCode carry the workload generator's verdict
	// for jobs that end on their own (application bugs, OOM, etc. — the
	// non-GPU failures that dominate the 25% baseline failure rate). These
	// drive the simulation and are not part of the accounting record.
	RunDuration     time.Duration
	NaturalExitCode int  // see RunDuration
	FailNaturally   bool // see RunDuration; next to ML so the two bools share a word

	// ML marks jobs the workload generator labeled as machine-learning
	// (the study approximates this from job names).
	ML bool
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

// UsesGPU reports whether the job's placement includes the GPU.
func (j *Job) UsesGPU(node string, gpu int) bool {
	for _, e := range j.Place {
		if e.Node == node {
			return slices.Contains(e.GPUs, gpu)
		}
	}
	return false
}

// UsesLink reports whether the job holds both endpoints of an intra-node
// NVLink (so the link may carry its traffic).
func (j *Job) UsesLink(node string, a, b int) bool {
	return j.UsesGPU(node, a) && j.UsesGPU(node, b)
}
