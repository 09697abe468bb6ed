package core_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/cluster"
	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/core"
	"gpuresilience/internal/workload"
	"gpuresilience/internal/xid"
)

// foldFixture is a simulated run's coalesced stream with the job database,
// repair log and CPU record Stage III reads alongside it.
type foldFixture struct {
	events  []xid.Event
	out     *core.EndToEndResult
	repairs []time.Duration
}

var (
	foldOnce sync.Once
	foldVal  foldFixture
	foldErr  error
)

func loadFoldFixture(t *testing.T) foldFixture {
	t.Helper()
	foldOnce.Do(func() {
		// Jobs rarely run into an error below 2% scale, which would leave
		// Table II empty.
		scale := 0.05
		if testing.Short() {
			scale = 0.02
		}
		sc := calib.NewScenario(42, scale)
		out, err := core.EndToEnd(core.EndToEndConfig{
			Cluster:       sc.Cluster,
			Pipeline:      pipeCfg(),
			KeepRawEvents: true,
		})
		if err != nil {
			foldErr = err
			return
		}
		events, err := coalesce.Events(out.RawEvents, pipeCfg().CoalesceWindow)
		if err != nil {
			foldErr = err
			return
		}
		foldVal = foldFixture{events: events, out: out, repairs: cluster.Durations(out.Truth.Downtimes)}
	})
	if foldErr != nil {
		t.Fatal(foldErr)
	}
	if len(foldVal.events) < 100 {
		t.Fatalf("fixture too small: %d coalesced events", len(foldVal.events))
	}
	return foldVal
}

// analyze is the batch reference: one StageIII fold of a prefix, one Add
// and then Results.
func (f foldFixture) analyze(t *testing.T, events []xid.Event) *core.Results {
	t.Helper()
	s, err := core.NewStageIII(f.out.Truth.Jobs, f.repairs, f.out.Truth.CPU, pipeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(events); err != nil {
		t.Fatal(err)
	}
	res, err := s.Results()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStageIIIAnySplitMatchesBatch is the fold's property: however the
// coalesced stream is cut into Add batches, and however often Results is
// called between them, the Results equal one Add of the same events — at
// the end and at every intermediate prefix checked. Analyze over the raw
// events, which folds Stage II's kept blocks, gives them too.
func TestStageIIIAnySplitMatchesBatch(t *testing.T) {
	f := loadFoldFixture(t)
	want := f.analyze(t, f.events)
	if want.TableII.EncounteredAny == 0 || want.PreSummary.OutlierErrors == 0 {
		t.Fatalf("fixture exercises neither Table II nor the outlier rule: %+v / %+v",
			want.TableII, want.PreSummary)
	}
	batch, err := core.Analyze(f.out.RawEvents, f.out.Truth.Jobs, f.repairs, f.out.Truth.CPU, pipeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if batch.RawEvents != len(f.out.RawEvents) {
		t.Fatalf("Analyze counted %d raw events, want %d", batch.RawEvents, len(f.out.RawEvents))
	}
	batch.RawEvents = want.RawEvents
	if !reflect.DeepEqual(batch, want) {
		t.Fatal("Analyze over the raw events differs from one Add of the coalesced events")
	}
	n := len(f.events)

	splits := map[string][]int{ // batch end offsets, the last one n
		"one batch":       {n},
		"event per batch": nil,
	}
	for i := 1; i <= n; i++ {
		splits["event per batch"] = append(splits["event per batch"], i)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		var cuts []int
		for at := 0; at < n; {
			at = min(n, at+1+rng.Intn(n/8))
			cuts = append(cuts, at)
		}
		splits["random cuts "+string(rune('a'+trial))] = cuts
	}

	for name, cuts := range splits {
		t.Run(name, func(t *testing.T) {
			s, err := core.NewStageIII(f.out.Truth.Jobs, f.repairs, f.out.Truth.CPU, pipeCfg())
			if err != nil {
				t.Fatal(err)
			}
			lo := 0
			for i, hi := range cuts {
				if err := s.Add(f.events[lo:hi]); err != nil {
					t.Fatalf("batch %d [%d:%d]: %v", i, lo, hi, err)
				}
				lo = hi
				// Results between Adds must neither disturb the fold nor
				// differ from the batch analysis of the prefix. Checking
				// every prefix of the per-event split would be quadratic.
				if i%max(1, len(cuts)/6) != 0 {
					continue
				}
				got, err := s.Results()
				if err != nil {
					t.Fatal(err)
				}
				if pre := f.analyze(t, f.events[:hi]); !reflect.DeepEqual(got, pre) {
					t.Fatalf("after batch %d (prefix %d): Results differ from one Add of the prefix", i, hi)
				}
			}
			got, err := s.Results()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d batches: Results differ from one Add\n got %+v\nwant %+v", len(cuts), got, want)
			}
		})
	}
}

// TestStageIIIRejectsOutOfOrderAdd: an Add that starts before the last
// added event, or is unsorted itself, is an error and folds nothing.
func TestStageIIIRejectsOutOfOrderAdd(t *testing.T) {
	at := op.Start.Add(48 * time.Hour)
	s, err := core.NewStageIII(nil, nil, workload.CPURecord{}, pipeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add([]xid.Event{ev(at, "n1", 0, xid.MMU), ev(at, "n2", 0, xid.MMU)}); err != nil {
		t.Fatal(err)
	}
	before, err := s.Results()
	if err != nil {
		t.Fatal(err)
	}
	for name, batch := range map[string][]xid.Event{
		"earlier time":           {ev(at.Add(-time.Second), "n3", 0, xid.MMU)},
		"same time, lower node":  {ev(at, "n1", 1, xid.MMU)},
		"unsorted batch":         {ev(at.Add(2*time.Hour), "n1", 0, xid.MMU), ev(at.Add(time.Hour), "n1", 0, xid.MMU)},
		"sorted head, late tail": {ev(at.Add(time.Hour), "n1", 0, xid.MMU), ev(at.Add(-time.Hour), "n1", 0, xid.MMU)},
	} {
		if err := s.Add(batch); err == nil {
			t.Errorf("%s: Add accepted an out-of-order batch", name)
		}
		after, err := s.Results()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(after, before) {
			t.Errorf("%s: a rejected Add changed the Results", name)
		}
	}
	// The same event again, or a later one, continues the order.
	if err := s.Add([]xid.Event{ev(at, "n2", 0, xid.MMU), ev(at.Add(time.Second), "n1", 0, xid.MMU)}); err != nil {
		t.Fatalf("in-order Add rejected: %v", err)
	}
}

// TestNewStageIIIValidates: a bad pipeline config fails at construction.
func TestNewStageIIIValidates(t *testing.T) {
	cfg := pipeCfg()
	cfg.Nodes = 0
	if _, err := core.NewStageIII(nil, nil, workload.CPURecord{}, cfg); err == nil {
		t.Fatal("zero node count accepted")
	}
	cfg = pipeCfg()
	cfg.AttributionWindow = 0
	if _, err := core.NewStageIII(nil, nil, workload.CPURecord{}, cfg); err == nil {
		t.Fatal("zero attribution window accepted")
	}
}
