package core_test

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/core"
	"gpuresilience/internal/ingest"
	"gpuresilience/internal/report"
	"gpuresilience/internal/workload"
	"gpuresilience/internal/xid"
)

// TestAnalyzeLeavesInputUnmodified: Analyze and coalesce.Events borrow
// their input. Stage II sorts an index of it, so an input out of Compare
// order, with full ties that only Detail tells apart, comes back exactly
// as it went in.
func TestAnalyzeLeavesInputUnmodified(t *testing.T) {
	base := op.Start.Add(time.Hour)
	events := []xid.Event{
		{Time: xid.Time(base.Add(time.Minute).UnixNano()), Node: "n2", GPU: 1, Code: xid.NVLink, Detail: "c"},
		{Time: xid.Time(base.UnixNano()), Node: "n1", GPU: 0, Code: xid.MMU, Detail: "a"},
		{Time: xid.Time(base.UnixNano()), Node: "n1", GPU: 0, Code: xid.MMU, Detail: "b"}, // full tie with "a"
		{Time: xid.Time(base.Add(time.Second).UnixNano()), Node: "n1", GPU: 0, Code: xid.MMU, Detail: "dup"},
		{Time: xid.Time(base.UnixNano()), Node: "n0", GPU: 3, Code: xid.DBE, Detail: "d"},
		{Time: xid.Time(base.Add(time.Minute).UnixNano()), Node: "n2", GPU: 1, Code: xid.NVLink, Detail: "e"}, // full tie with "c"
	}
	want := slices.Clone(events)

	res, err := core.Analyze(events, nil, nil, workload.CPURecord{}, pipeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.RawEvents != len(want) || res.CoalescedEvents != 3 {
		t.Fatalf("raw=%d coalesced=%d, want %d and 3", res.RawEvents, res.CoalescedEvents, len(want))
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("core.Analyze modified its input:\n got: %v\nwant: %v", events, want)
	}

	kept, err := coalesce.Events(events, coalesce.DefaultWindow)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 3 || kept[1].Detail != "a" {
		t.Fatalf("coalesce.Events kept %v, want 3 events with the tie's first (a) second", kept)
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("coalesce.Events modified its input:\n got: %v\nwant: %v", events, want)
	}
}

// TestKeepRawEventsSourceOrder: with KeepRawEvents, EndToEnd keeps Stage
// I's events concatenated. That is exactly Stage I over the raw log bytes,
// in source order, and keeping it changes no table.
func TestKeepRawEventsSourceOrder(t *testing.T) {
	sc := calib.NewScenario(5, 0.003)
	var raw bytes.Buffer
	kept, err := core.EndToEnd(core.EndToEndConfig{
		Cluster:       sc.Cluster,
		Pipeline:      pipeCfg(),
		KeepRawLogs:   &raw,
		KeepRawEvents: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := ingest.ExtractReader(bytes.NewReader(raw.Bytes()), ingest.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	events := slices.Concat(ext.Segments...)
	if len(events) == 0 || !reflect.DeepEqual(kept.RawEvents, events) {
		t.Fatalf("RawEvents (%d) is not Stage I over the raw log (%d events) in source order",
			len(kept.RawEvents), len(events))
	}
	if kept.Results.RawEvents != len(events) {
		t.Fatalf("Results.RawEvents = %d, want %d", kept.Results.RawEvents, len(events))
	}

	plain, err := core.EndToEnd(core.EndToEndConfig{Cluster: calib.NewScenario(5, 0.003).Cluster, Pipeline: pipeCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if plain.RawEvents != nil {
		t.Fatalf("RawEvents kept without KeepRawEvents: %d events", len(plain.RawEvents))
	}
	var a, b bytes.Buffer
	if err := report.WriteAll(&a, kept.Results); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteAll(&b, plain.Results); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("tables differ with KeepRawEvents:\n%s\nwithout:\n%s", a.String(), b.String())
	}
}
