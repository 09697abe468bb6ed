package gpusim

import (
	"errors"
	"time"

	"gpuresilience/internal/randx"
	"gpuresilience/internal/xid"
)

// NVLinkConfig parameterizes the intra-node NVLink fabric model.
type NVLinkConfig struct {
	// PropagateProb is the probability a link fault is observed by both
	// endpoint GPUs (the paper reports 42% of operational NVLink errors
	// propagated to two or more GPUs).
	PropagateProb float64

	// ActiveFailProb is the probability that a fault on a link actively
	// carrying job traffic escalates past CRC-and-replay to the application,
	// killing the job. Faults on idle links never affect jobs, which is the
	// paper's explanation for the 46% of jobs that survived NVLink errors.
	ActiveFailProb float64
}

// DefaultNVLinkConfig returns the paper-calibrated NVLink parameters.
func DefaultNVLinkConfig() NVLinkConfig {
	return NVLinkConfig{
		PropagateProb:  0.42,
		ActiveFailProb: 0.95,
	}
}

// Fabric models the NVLink mesh between the GPUs of one node. On Delta's
// 4-way A100 boards every GPU pair is bridged, so a fault address is a pair
// of distinct GPU indices.
type Fabric struct {
	cfg     NVLinkConfig
	numGPUs int

	faults       int
	replays      int
	escalations  int
	crcDetected  int
	propagated2p int
}

// NewFabric returns a fabric connecting numGPUs GPUs.
func NewFabric(numGPUs int, cfg NVLinkConfig) (*Fabric, error) {
	if numGPUs < 2 {
		return nil, errors.New("gpusim: NVLink fabric needs at least 2 GPUs")
	}
	if cfg.PropagateProb < 0 || cfg.PropagateProb > 1 ||
		cfg.ActiveFailProb < 0 || cfg.ActiveFailProb > 1 {
		return nil, errors.New("gpusim: NVLink probability out of [0,1]")
	}
	return &Fabric{cfg: cfg, numGPUs: numGPUs}, nil
}

// LinkFault is the outcome of one NVLink fault.
type LinkFault struct {
	// A and B are the endpoint GPU indices of the faulted link.
	A, B int
	// Propagated reports that both endpoints logged the error.
	Propagated bool
	// Active reports the link was carrying job traffic when the fault hit.
	Active bool
	// Escalated reports the error escaped CRC-and-replay and reached the
	// application (only possible on active links).
	Escalated bool
	// Events are the XID 74 records logged (one per observing GPU).
	Events []xid.Event
}

// PickPair returns a uniformly random link (GPU index pair) of the fabric.
// Episodes pin one flaky link and fault it repeatedly.
func (f *Fabric) PickPair(rng *randx.Stream) (a, b int) {
	a = rng.Intn(f.numGPUs)
	b = rng.Intn(f.numGPUs - 1)
	if b >= a {
		b++
	}
	if a > b {
		a, b = b, a
	}
	return a, b
}

// Fault injects one NVLink fault on a random link at time now. active
// reports whether the link between two GPU indices is currently carrying
// traffic (i.e. both belong to one running multi-GPU job); the cluster layer
// supplies it. It fails when the event record cannot hold now.
func (f *Fabric) Fault(now time.Time, node string, rng *randx.Stream, active func(a, b int) bool) (LinkFault, error) {
	a, b := f.PickPair(rng)
	return f.FaultPair(now, node, rng, a, b, active)
}

// FaultPair injects one NVLink fault on the link between GPUs a and b. It
// fails when the event record cannot hold now.
func (f *Fabric) FaultPair(now time.Time, node string, rng *randx.Stream, a, b int, active func(x, y int) bool) (LinkFault, error) {
	if a > b {
		a, b = b, a
	}
	lf := LinkFault{A: a, B: b}
	f.faults++
	f.crcDetected++ // CRC flags the corrupted packet; the driver logs XID 74

	lf.Propagated = rng.Bool(f.cfg.PropagateProb)
	if lf.Propagated {
		f.propagated2p++
	}

	if active != nil && active(a, b) {
		lf.Active = true
		if rng.Bool(f.cfg.ActiveFailProb) {
			lf.Escalated = true
			f.escalations++
		} else {
			f.replays++ // retransmission from last-known-good succeeded
		}
	}

	// GPU a logs the error; b too when it propagated.
	logged := [2]int{a, b}
	n := 1
	if lf.Propagated {
		n = 2
	}
	detail := linkDetail(a, b)
	for _, gpu := range logged[:n] {
		ev, err := xid.NewEvent(now, node, gpu, xid.NVLink, detail)
		if err != nil {
			return lf, err
		}
		lf.Events = append(lf.Events, ev)
	}
	return lf, nil
}

func linkDetail(a, b int) string {
	return "link " + string(rune('0'+a)) + "-" + string(rune('0'+b)) + " CRC failure"
}

// Stats reports fabric lifetime counters.
type FabricStats struct {
	Faults       int // injected link faults
	CRCDetected  int // faults surfacing as CRC errors (XID 57)
	Replays      int // transparent link-replay recoveries
	Escalations  int // faults escalated to fallen-off-the-bus (XID 79)
	Propagated2P int // faults mirrored to the peer endpoint
}

// Stats returns lifetime counters for the fabric.
func (f *Fabric) Stats() FabricStats {
	return FabricStats{
		Faults:       f.faults,
		CRCDetected:  f.crcDetected,
		Replays:      f.replays,
		Escalations:  f.escalations,
		Propagated2P: f.propagated2p,
	}
}
