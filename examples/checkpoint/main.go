// Checkpoint what-if: §V-B notes that only MMU and NVLink errors can be
// handled at the application level, so the paper argues hardware reliability
// must improve rather than relying on application recovery. This example
// quantifies the other classic mitigation — checkpointing — over a simulated
// job population: how many GPU hours a checkpoint policy would have saved
// from GPU-failure kills, net of its overhead, and how the Young/Daly
// optimal interval follows from the measured MTBE.
//
//	go run ./examples/checkpoint
package main

import (
	"fmt"
	"os"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/core"
	"gpuresilience/internal/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "checkpoint:", err)
		os.Exit(1)
	}
}

func run() error {
	scenario := calib.NewScenario(13, 0.1)
	out, err := core.EndToEnd(core.EndToEndConfig{
		Cluster:  scenario.Cluster,
		Pipeline: core.DefaultPipelineConfig(calib.PreOp(), calib.Op(), calib.Nodes),
	})
	if err != nil {
		return err
	}

	events, err := coalesce.Events(out.Truth.Events, coalesce.DefaultWindow)
	if err != nil {
		return err
	}
	fleet := make([]string, calib.Nodes)
	for i := range fleet {
		fleet[i] = fmt.Sprintf("gpub%03d", i+1)
	}
	return report.WriteExtensions(os.Stdout, report.ExtensionsInput{
		Events:           events,
		Jobs:             out.Truth.Jobs,
		Period:           calib.Op(),
		FleetSize:        calib.Nodes,
		PerNodeMTBEHours: out.Results.OpSummary.PerNodeMTBE,
		DownHoursByNode:  report.DownHoursByNode(out.Truth.Downtimes, calib.Op().Contains),
		Fleet:            fleet,
	})
}
