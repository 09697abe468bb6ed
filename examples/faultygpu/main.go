// Faulty GPU case study: reproduces finding (v) — the defective
// pre-operational A100 whose error containment failed, producing a 17-day
// uncontained-memory-error burst (38,900 coalesced errors, over a million
// raw log lines) and 15 row-remapping failures, until SREs replaced it.
//
// The example runs the pre-operational period only, shows how Stage II
// coalescing collapses the burst, and prints the defective device's
// remap/containment history.
//
//	go run ./examples/faultygpu
package main

import (
	"fmt"
	"os"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/core"
	"gpuresilience/internal/xid"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "faultygpu:", err)
		os.Exit(1)
	}
}

func run() error {
	// Full-scale faulty-GPU scenario, but no workload and no background
	// faults: only the defective device and the healthy-device
	// uncorrectable roots, so the case study stands alone.
	scenario := calib.NewScenario(7, 1.0)
	scenario.Cluster.Workload = nil
	scenario.Cluster.OpFaults = nil
	// Keep only the healthy-device uncorrectable roots (the last pre-op
	// spec); the defective device itself lives in scenario.Cluster.FaultyGPU.
	specs := scenario.Cluster.PreOpFaults
	scenario.Cluster.PreOpFaults = specs[len(specs)-1:]

	out, err := core.EndToEnd(core.EndToEndConfig{
		Cluster:  scenario.Cluster,
		Pipeline: core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes),
	})
	if err != nil {
		return err
	}
	res := out.Results

	fmt.Println("=== The 17-day uncontained memory error burst (finding v) ===")
	fmt.Println()
	fmt.Printf("raw log lines emitted:          %d\n", out.RawLogLines)
	fmt.Printf("after Stage I extraction:       %d XID records\n", res.Extract.XIDLines)
	fmt.Printf("after Stage II coalescing:      %d errors (%.1fx reduction)\n\n",
		res.CoalescedEvents, float64(res.Extract.XIDLines)/float64(res.CoalescedEvents))

	row, _ := res.Row(xid.GroupUncontained)
	fmt.Printf("uncontained memory errors, pre-op: %d (paper: 38,900)\n", row.PreOp.Count)
	rrf, _ := res.Row(xid.GroupRRF)
	fmt.Printf("row remapping failures, pre-op:    %d (paper: 15)\n\n", rrf.PreOp.Count)

	// Burst extent from the event stream (pre-burst cascade blips from the
	// failing device are excluded by starting at the scenario burst date).
	burstStart := scenario.Cluster.FaultyGPU.BurstStart
	var first, last time.Time
	count := 0
	for _, ev := range out.Truth.Events {
		at := ev.Time.Time()
		if ev.Code != xid.UncontainedMem || at.Before(burstStart) {
			continue
		}
		if count == 0 {
			first = at
		}
		last = at
		count++
	}
	fmt.Printf("burst window: %s -> %s (%.1f days)\n",
		first.Format("2006-01-02"), last.Format("2006-01-02"),
		last.Sub(first).Hours()/24)

	// The SREs replaced the device at burst end; the swap appears in the
	// downtime ledger.
	for _, d := range out.Truth.Downtimes {
		if d.Swapped {
			fmt.Printf("device replaced: node %s, service %s -> %s (%.1f h)\n",
				d.Node, d.Start.Format("2006-01-02 15:04"),
				d.End.Format("2006-01-02 15:04"), d.Duration().Hours())
		}
	}

	fmt.Println("\nWithout coalescing, each of these errors would be counted once per")
	fmt.Println("duplicated log line, overstating the error rate by an order of")
	fmt.Println("magnitude — which is why Stage II exists (§III-B).")
	return nil
}
