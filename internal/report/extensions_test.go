package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/xid"
)

func TestWriteExtensions(t *testing.T) {
	op := calib.Op()
	var events []xid.Event
	// A clustered error stream on two nodes plus PMU->MMU pairs.
	for i := 0; i < 60; i++ {
		base := op.Start.Add(time.Duration(i) * 12 * time.Hour)
		node := "gpub001"
		if i%4 == 0 {
			node = "gpub002"
		}
		for j := 0; j < 3; j++ {
			events = append(events, xid.Event{
				Time: base.Add(time.Duration(j) * time.Minute),
				Node: node, GPU: 0, Code: xid.MMU,
			})
		}
	}
	for i := 0; i < 10; i++ {
		at := op.Start.Add(time.Duration(i) * 100 * time.Hour)
		events = append(events, xid.Event{Time: at, Node: "gpub003", GPU: 1, Code: xid.PMUSPIReadFail})
		events = append(events, xid.Event{Time: at.Add(5 * time.Second), Node: "gpub003", GPU: 1, Code: xid.MMU})
	}

	start := op.Start.Add(time.Hour)
	jobs := []*slurmsim.Job{
		{GPUs: 4, Start: start, End: start.Add(20 * time.Hour), State: slurmsim.StateNodeFail,
			Place: slurmsim.Placement{{Node: "gpub001", GPUs: []int{0, 1, 2, 3}}}},
		{GPUs: 1, Start: start, End: start.Add(2 * time.Hour), State: slurmsim.StateCompleted,
			Place: slurmsim.Placement{{Node: "gpub002", GPUs: []int{0}}}},
	}

	var buf bytes.Buffer
	err := WriteExtensions(&buf, ExtensionsInput{
		Events:           events,
		Jobs:             jobs,
		Period:           op,
		FleetSize:        calib.Nodes,
		PerNodeMTBEHours: 154,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Weibull fit", "Fano factor", "Node concentration",
		"PMU->MMU lag correlation (20 s, same device): 100%",
		"Young/Daly optimal interval", "Net saved GPUh",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("extensions output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteExtensionsEmptyInputs(t *testing.T) {
	var buf bytes.Buffer
	err := WriteExtensions(&buf, ExtensionsInput{
		Period:    calib.Op(),
		FleetSize: calib.Nodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Extensions") {
		t.Fatal("header missing")
	}
}
