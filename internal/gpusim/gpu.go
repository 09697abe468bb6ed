// Package gpusim models an NVIDIA A100 GPU at the granularity the paper
// characterizes: the HBM2e memory subsystem with SECDED ECC, row remapping,
// dynamic page offlining and error containment; the NVLink fabric with CRC
// detection and replay; and the GSP, PMU, MMU and PCIe-bus components whose
// errors surface as XID 119/120, 122/123, 31 and 79.
//
// Components are deterministic state machines; *when* faults arrive is
// decided by the fault processes in internal/faults, while *what cascade of
// XID events and recovery actions results* is decided here.
package gpusim

import (
	"fmt"
	"time"

	"gpuresilience/internal/randx"
	"gpuresilience/internal/xid"
)

// Config carries the per-GPU model parameters.
type Config struct {
	Memory MemoryConfig // HBM fault-cascade probabilities
	NVLink NVLinkConfig // link CRC/replay/escalation model
}

// DefaultConfig returns parameters for a healthy production A100.
func DefaultConfig() Config {
	return Config{
		Memory: DefaultMemoryConfig(),
		NVLink: DefaultNVLinkConfig(),
	}
}

// GPU is one A100 device.
type GPU struct {
	node  string
	index int

	Memory *Memory // HBM error state machine
	GSP    *GSP    // GPU System Processor (firmware) model
	PMU    *PMU    // power-management unit model

	// failed marks a device pulled from service awaiting physical
	// replacement.
	failed bool

	counters map[xid.Code]int
}

// New returns a healthy GPU with the given identity and model parameters.
func New(node string, index int, cfg Config) (*GPU, error) {
	mem, err := NewMemory(cfg.Memory)
	if err != nil {
		return nil, fmt.Errorf("gpu %s#%d: %w", node, index, err)
	}
	return &GPU{
		node:     node,
		index:    index,
		Memory:   mem,
		GSP:      &GSP{},
		PMU:      &PMU{},
		counters: make(map[xid.Code]int),
	}, nil
}

// Node returns the host name of the node holding this GPU.
func (g *GPU) Node() string { return g.node }

// Index returns the GPU's index within its node.
func (g *GPU) Index() int { return g.index }

// Failed reports whether the device has been pulled for replacement.
func (g *GPU) Failed() bool { return g.failed }

// MarkFailed pulls the device from service (physical replacement required).
func (g *GPU) MarkFailed() { g.failed = true }

// Replace swaps in a fresh device: memory state and health reset, counters
// keep accumulating (they describe the slot's history, which is what the
// field data records — logs are per host/GPU-index, not per serial number).
func (g *GPU) Replace(cfg Config) error {
	mem, err := NewMemory(cfg.Memory)
	if err != nil {
		return err
	}
	g.Memory = mem
	g.GSP = &GSP{}
	g.PMU = &PMU{}
	g.failed = false
	return nil
}

// ResetComponents clears the recoverable component state (GSP hang, PMU SPI
// lock) — what a GPU reset or node reboot restores, as opposed to Replace,
// which swaps the physical device.
func (g *GPU) ResetComponents() {
	g.GSP.Reset()
	g.PMU.Reset()
}

// ErrorCount returns how many events of the code this GPU has emitted.
func (g *GPU) ErrorCount(c xid.Code) int { return g.counters[c] }

// event builds an xid.Event for this GPU and bumps the per-code counter.
// It fails, counting nothing, when the event record cannot hold now.
func (g *GPU) event(now time.Time, code xid.Code, detail string) (xid.Event, error) {
	ev, err := xid.NewEvent(now, g.node, g.index, code, detail)
	if err != nil {
		return xid.Event{}, err
	}
	g.counters[code]++
	return ev, nil
}

// Uncorrectable processes one uncorrectable ECC fault (a DBE or a multi-SBE
// word) and returns the resulting XID event cascade plus the recovery
// outcome. Per the NVIDIA memory-error-management flow: the driver attempts a
// row remap (XID 63 on success, 64 when no spare row can be used); if a
// process touches the poisoned page before the remap takes effect, error
// containment either kills the offending process (XID 94) or fails and
// poisons the device (XID 95). It fails when the event record cannot hold
// now.
func (g *GPU) Uncorrectable(now time.Time, rng *randx.Stream) (UncorrectableOutcome, error) {
	raw := g.Memory.Uncorrectable(rng)
	out := UncorrectableOutcome{MemOutcome: raw}
	var err error
	add := func(code xid.Code, detail string) {
		if err != nil {
			return
		}
		var ev xid.Event
		if ev, err = g.event(now, code, detail); err == nil {
			out.Events = append(out.Events, ev)
		}
	}
	if raw.LoggedDBE {
		add(xid.DBE, "double-bit ECC error")
	}
	if raw.Remapped {
		add(xid.RRE, fmt.Sprintf("row remapped, %d spares left", g.Memory.SpareRowsLeft()))
	} else {
		add(xid.RRF, "row remapping failure")
	}
	if raw.Accessed {
		if raw.Contained {
			add(xid.ContainedMem, "uncorrectable error contained, affected process terminated")
		} else {
			add(xid.UncontainedMem, "uncorrectable error containment failed")
		}
	}
	return out, err
}

// Correctable records a single-bit ECC error at a memory row. SBEs are
// silently corrected and emit no XID; when a second SBE lands on the same
// row the driver escalates it to the uncorrectable cascade (the "2 SBEs at
// the same memory address" trigger of XID 63). The boolean reports whether
// an escalation happened; the outcome is only meaningful when it did. The
// escalation fails when the event record cannot hold now.
func (g *GPU) Correctable(now time.Time, row int, rng *randx.Stream) (UncorrectableOutcome, bool, error) {
	if !g.Memory.Correctable(row) {
		return UncorrectableOutcome{}, false, nil
	}
	out, err := g.Uncorrectable(now, rng)
	return out, true, err
}

// UncorrectableOutcome is the result of one uncorrectable memory fault.
type UncorrectableOutcome struct {
	MemOutcome
	Events []xid.Event // the XID events the fault emitted, in order
}

// MMUError emits an XID 31.
func (g *GPU) MMUError(now time.Time, detail string) (xid.Event, error) {
	return g.event(now, xid.MMU, detail)
}

// GSPError emits a GSP failure: XID 119 (RPC timeout) or 120. The processor
// is hung from the first failure until the next reset.
func (g *GPU) GSPError(now time.Time, timeout bool) (xid.Event, error) {
	if timeout {
		g.GSP.RPCTimeout(now)
		return g.event(now, xid.GSPRPCTimeout, "GSP RPC timed out")
	}
	g.GSP.Error(now)
	return g.event(now, xid.GSPError, "GSP error")
}

// PMUError emits a PMU SPI RPC failure: XID 122 (read) or 123 (write), and
// locks clock management until the next reset.
func (g *GPU) PMUError(now time.Time, read bool) (xid.Event, error) {
	g.PMU.SPIFailure(read)
	if read {
		return g.event(now, xid.PMUSPIReadFail, "PMU SPI RPC read failure")
	}
	return g.event(now, xid.PMUSPIWriteFail, "PMU SPI RPC write failure")
}

// BusOff emits an XID 79 (GPU fallen off the bus) and marks the device
// unhealthy: a fallen-off device needs at least a reset, often replacement.
func (g *GPU) BusOff(now time.Time) (xid.Event, error) {
	return g.event(now, xid.FallenOffBus, "GPU has fallen off the bus")
}

// UncontainedRepeat emits one repeated XID 95 from a device whose
// containment failure persists (the 17-day pre-operational burst).
func (g *GPU) UncontainedRepeat(now time.Time) (xid.Event, error) {
	return g.event(now, xid.UncontainedMem, "persistent uncontained memory error")
}
