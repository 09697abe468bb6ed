// Package xid catalogs the NVIDIA XID error codes studied in the paper
// (Table I): their categories, descriptions, recovery actions, and the
// inclusion rules the study applies (XID 13 and 43 are excluded from
// resilience statistics because they are job-triggered, not indicators of
// degraded GPU health).
package xid

import (
	"fmt"
	"math"
	"time"
)

// Code is an NVIDIA XID error code as logged by the NVRM kernel driver.
type Code int32

// The XID codes that appear in Delta's logs and in the study.
const (
	GPUSoftware     Code = 13  // GPU software error (excluded from stats)
	MMU             Code = 31  // memory management unit error
	ResetChannel    Code = 43  // reset channel verification error (excluded)
	DBE             Code = 48  // double-bit ECC error
	RRE             Code = 63  // row remapping event
	RRF             Code = 64  // row remapping failure
	NVLink          Code = 74  // NVLink interconnect error
	FallenOffBus    Code = 79  // GPU fallen off the bus
	ContainedMem    Code = 94  // contained uncorrectable ECC error
	UncontainedMem  Code = 95  // uncontained uncorrectable ECC error
	GSPRPCTimeout   Code = 119 // GSP RPC timeout
	GSPError        Code = 120 // GSP error
	PMUSPIReadFail  Code = 122 // PMU SPI RPC read failure
	PMUSPIWriteFail Code = 123 // PMU SPI RPC write failure
)

// Category groups XID codes the way Table I does.
type Category int

// Error categories from Table I, plus Software for the excluded codes.
const (
	CategoryHardware Category = iota + 1
	CategoryMemory
	CategoryInterconnect
	CategorySoftware
)

// String returns the Table I category label.
func (c Category) String() string {
	switch c {
	case CategoryHardware:
		return "Hardware"
	case CategoryMemory:
		return "Memory"
	case CategoryInterconnect:
		return "Interconnect"
	case CategorySoftware:
		return "Software"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// RecoveryAction is the action Table I lists for an error.
type RecoveryAction int

// Recovery actions, ordered roughly by severity.
const (
	RecoveryNone       RecoveryAction = iota + 1 // not specified / none
	RecoveryGPUReset                             // GPU reset required
	RecoveryNodeReboot                           // full node reboot required
	RecoverySRE                                  // GPU reset or SRE intervention
)

// String returns a short label for the recovery action.
func (r RecoveryAction) String() string {
	switch r {
	case RecoveryNone:
		return "none"
	case RecoveryGPUReset:
		return "gpu-reset"
	case RecoveryNodeReboot:
		return "node-reboot"
	case RecoverySRE:
		return "gpu-reset-or-sre"
	default:
		return fmt.Sprintf("RecoveryAction(%d)", int(r))
	}
}

// Info describes one XID code.
type Info struct {
	Code        Code           // the catalogued Xid number
	Abbr        string         // short name used in tables, e.g. "MMU Error"
	Category    Category       // the paper's coarse error category
	Description string         // one-line meaning of the code
	Recovery    RecoveryAction // what the SREs do when it fires
	// InStats reports whether the study counts this code in resilience
	// statistics (XID 13 and 43 are excluded).
	InStats bool
}

var catalog = map[Code]Info{
	GPUSoftware: {
		Code: GPUSoftware, Abbr: "GPU Software Error", Category: CategorySoftware,
		Description: "Graphics engine exception raised by user software",
		Recovery:    RecoveryNone, InStats: false,
	},
	MMU: {
		Code: MMU, Abbr: "MMU Error", Category: CategoryHardware,
		Description: "GPU memory management unit (MMU) error",
		Recovery:    RecoveryNone, InStats: true,
	},
	ResetChannel: {
		Code: ResetChannel, Abbr: "Reset Channel Verification Error", Category: CategorySoftware,
		Description: "Reset channel verification error raised by user software",
		Recovery:    RecoveryNone, InStats: false,
	},
	DBE: {
		Code: DBE, Abbr: "DBE", Category: CategoryMemory,
		Description: "Double bit ECC memory error (DBE)",
		Recovery:    RecoveryGPUReset, InStats: true,
	},
	RRE: {
		Code: RRE, Abbr: "RRE", Category: CategoryMemory,
		Description: "Row remapping event, triggered by 1 DBE or 2 SBEs at the same address",
		Recovery:    RecoveryGPUReset, InStats: true,
	},
	RRF: {
		Code: RRF, Abbr: "RRF", Category: CategoryMemory,
		Description: "Row remapping failure (spare rows exhausted)",
		Recovery:    RecoveryGPUReset, InStats: true,
	},
	NVLink: {
		Code: NVLink, Abbr: "NVLink Error", Category: CategoryInterconnect,
		Description: "NVLink inter-GPU interconnect error",
		Recovery:    RecoverySRE, InStats: true,
	},
	FallenOffBus: {
		Code: FallenOffBus, Abbr: "GPU Fallen Off the Bus", Category: CategoryHardware,
		Description: "GPU has fallen off the system bus and is unreachable",
		Recovery:    RecoverySRE, InStats: true,
	},
	ContainedMem: {
		Code: ContainedMem, Abbr: "Contained Memory Error", Category: CategoryMemory,
		Description: "Uncorrectable contained ECC error (containment succeeded)",
		Recovery:    RecoveryNone, InStats: true,
	},
	UncontainedMem: {
		Code: UncontainedMem, Abbr: "Uncontained Memory Error", Category: CategoryMemory,
		Description: "Uncontained uncorrectable memory error (containment failed)",
		Recovery:    RecoverySRE, InStats: true,
	},
	GSPRPCTimeout: {
		Code: GSPRPCTimeout, Abbr: "GSP Error", Category: CategoryHardware,
		Description: "GPU System Processor (GSP) RPC timeout",
		Recovery:    RecoverySRE, InStats: true,
	},
	GSPError: {
		Code: GSPError, Abbr: "GSP Error", Category: CategoryHardware,
		Description: "GPU System Processor (GSP) error",
		Recovery:    RecoverySRE, InStats: true,
	},
	PMUSPIReadFail: {
		Code: PMUSPIReadFail, Abbr: "PMU SPI Error", Category: CategoryHardware,
		Description: "PMU SPI RPC read failure (failed communication with the PMU)",
		Recovery:    RecoveryNone, InStats: true,
	},
	PMUSPIWriteFail: {
		Code: PMUSPIWriteFail, Abbr: "PMU SPI Error", Category: CategoryHardware,
		Description: "PMU SPI RPC write failure (failed communication with the PMU)",
		Recovery:    RecoveryNone, InStats: true,
	},
}

// Lookup returns the catalog entry for a code.
func Lookup(c Code) (Info, bool) {
	info, ok := catalog[c]
	return info, ok
}

// All returns the catalog codes in ascending numeric order.
func All() []Code {
	return []Code{
		GPUSoftware, MMU, ResetChannel, DBE, RRE, RRF, NVLink, FallenOffBus,
		ContainedMem, UncontainedMem, GSPRPCTimeout, GSPError,
		PMUSPIReadFail, PMUSPIWriteFail,
	}
}

// Studied returns the codes included in resilience statistics, in Table I
// order.
func Studied() []Code {
	out := make([]Code, 0, len(catalog))
	for _, c := range All() {
		if catalog[c].InStats {
			out = append(out, c)
		}
	}
	return out
}

// Category returns the Table I category of the code, or CategorySoftware for
// unknown codes.
func (c Code) Category() Category {
	if info, ok := catalog[c]; ok {
		return info.Category
	}
	return CategorySoftware
}

// Abbr returns the short table label of the code.
func (c Code) Abbr() string {
	if info, ok := catalog[c]; ok {
		return info.Abbr
	}
	return fmt.Sprintf("XID %d", int(c))
}

// InStats reports whether the study counts the code in resilience stats.
func (c Code) InStats() bool {
	info, ok := catalog[c]
	return ok && info.InStats
}

// String implements fmt.Stringer.
func (c Code) String() string { return fmt.Sprintf("XID %d (%s)", int(c), c.Abbr()) }

// Group is a Table I row key: the paper reports XID 119/120 as one "GSP
// Error" row and 122/123 as one "PMU SPI Error" row.
type Group string

// Table I row groups, in the paper's row order.
const (
	GroupMMU         Group = "MMU Error"
	GroupDBE         Group = "DBE"
	GroupUncorrECC   Group = "Uncorrectable ECC"
	GroupRRE         Group = "RRE"
	GroupRRF         Group = "RRF"
	GroupNVLink      Group = "NVLink Error"
	GroupFallenBus   Group = "GPU Fallen Off the Bus"
	GroupContained   Group = "Contained Memory Error"
	GroupUncontained Group = "Uncontained Memory Error"
	GroupGSP         Group = "GSP Error"
	GroupPMU         Group = "PMU SPI Error"
)

// TableIGroups returns the Table I row groups in paper order. GroupUncorrECC
// is derived (union of uncorrectable memory errors), not a raw XID group.
func TableIGroups() []Group {
	return []Group{
		GroupMMU, GroupDBE, GroupUncorrECC, GroupRRE, GroupRRF, GroupNVLink,
		GroupFallenBus, GroupContained, GroupUncontained, GroupGSP, GroupPMU,
	}
}

// GroupOf maps a code to its Table I row group. The boolean is false for
// codes that have no Table I row (e.g. the excluded software XIDs).
func GroupOf(c Code) (Group, bool) {
	switch c {
	case MMU:
		return GroupMMU, true
	case DBE:
		return GroupDBE, true
	case RRE:
		return GroupRRE, true
	case RRF:
		return GroupRRF, true
	case NVLink:
		return GroupNVLink, true
	case FallenOffBus:
		return GroupFallenBus, true
	case ContainedMem:
		return GroupContained, true
	case UncontainedMem:
		return GroupUncontained, true
	case GSPRPCTimeout, GSPError:
		return GroupGSP, true
	case PMUSPIReadFail, PMUSPIWriteFail:
		return GroupPMU, true
	default:
		return "", false
	}
}

// GroupCategory returns the Table I category of a row group.
func GroupCategory(g Group) Category {
	switch g {
	case GroupMMU, GroupFallenBus, GroupGSP, GroupPMU:
		return CategoryHardware
	case GroupNVLink:
		return CategoryInterconnect
	default:
		return CategoryMemory
	}
}

// Event is one GPU error occurrence: the canonical record exchanged between
// the simulator, the syslog emitter/parser, and the analysis pipeline. It
// is 48 bytes; build one from a time.Time and an int GPU index with
// NewEvent, which checks both fit.
type Event struct {
	Time Time   // occurrence instant, as logged
	Node string // node host name, e.g. "gpub042"
	GPU  int32  // GPU index within the node
	Code Code   // the Xid number
	// Detail carries code-specific context (e.g. NVLink link id, remapped
	// row). Informational; the pipeline keys only on (Time, Node, GPU, Code).
	Detail string
}

// NewEvent returns the event at t on GPU gpu of node, or an error when t
// lies outside [MinTime, MaxTime] (a *RangeError) or gpu does not fit the
// record.
func NewEvent(t time.Time, node string, gpu int, code Code, detail string) (Event, error) {
	at, err := TimeOf(t)
	if err != nil {
		return Event{}, err
	}
	if gpu < math.MinInt32 || gpu > math.MaxInt32 {
		return Event{}, fmt.Errorf("xid: GPU index %d does not fit the event record", gpu)
	}
	return Event{Time: at, Node: node, GPU: int32(gpu), Code: code, Detail: detail}, nil
}

// Key identifies the coalescing identity of an event: same node, GPU, and
// code.
type Key struct {
	Node string // node host name
	GPU  int32  // GPU index within the node
	Code Code   // the Xid number
}

// Key returns the coalescing key of the event.
func (e Event) Key() Key { return Key{Node: e.Node, GPU: e.GPU, Code: e.Code} }
