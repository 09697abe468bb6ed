package correlation

import (
	"math"
	"testing"
	"time"

	"gpuresilience/internal/randx"
	"gpuresilience/internal/stats"
	"gpuresilience/internal/xid"
)

var period = stats.Period{
	Name:  "test",
	Start: time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC),
	End:   time.Date(2023, 12, 31, 0, 0, 0, 0, time.UTC),
}

func poissonEvents(rate float64, seed uint64) []xid.Event {
	rng := randx.NewStream(seed)
	var events []xid.Event
	at := period.Start
	for {
		at = at.Add(time.Duration(rng.Exponential(rate) * float64(time.Hour)))
		if !period.Contains(at) {
			return events
		}
		events = append(events, xid.Event{Time: xid.Time(at.UnixNano()), Node: "n1", GPU: 0, Code: xid.MMU})
	}
}

func TestFanoFactorPoissonNearOne(t *testing.T) {
	events := poissonEvents(2, 1) // 2/hour
	f, err := FanoFactor(events, period, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-1) > 0.1 {
		t.Fatalf("Poisson Fano factor = %v, want ~1", f)
	}
}

func TestFanoFactorBurstyAboveOne(t *testing.T) {
	// Episodes of 20 events at the same hour, far apart.
	var events []xid.Event
	for day := 0; day < 100; day++ {
		base := period.Start.Add(time.Duration(day) * 72 * time.Hour)
		if !period.Contains(base) {
			break
		}
		for i := 0; i < 20; i++ {
			events = append(events, xid.Event{
				Time: xid.Time(base.Add(time.Duration(i) * time.Minute).UnixNano()),
				Node: "n1", GPU: 0, Code: xid.GSPRPCTimeout,
			})
		}
	}
	f, err := FanoFactor(events, period, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if f < 5 {
		t.Fatalf("bursty Fano factor = %v, want >> 1", f)
	}
}

func TestFanoFactorValidation(t *testing.T) {
	if _, err := FanoFactor(nil, period, 0); err == nil {
		t.Fatal("zero bucket accepted")
	}
	if _, err := FanoFactor(nil, period, time.Hour); err == nil {
		t.Fatal("no events accepted")
	}
	if _, err := FanoFactor(nil, period, 300*24*time.Hour); err == nil {
		t.Fatal("single bucket accepted")
	}
}

func TestInterArrivalCV(t *testing.T) {
	events := poissonEvents(1, 2)
	cv, err := InterArrivalCV(events)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cv-1) > 0.1 {
		t.Fatalf("Poisson CV = %v, want ~1", cv)
	}
	// Perfectly regular arrivals: CV ~ 0.
	var regular []xid.Event
	for i := 0; i < 100; i++ {
		regular = append(regular, xid.Event{
			Time: xid.Time(period.Start.Add(time.Duration(i) * time.Hour).UnixNano()), Node: "n", Code: xid.MMU,
		})
	}
	cv, err = InterArrivalCV(regular)
	if err != nil {
		t.Fatal(err)
	}
	if cv > 1e-9 {
		t.Fatalf("regular CV = %v, want 0", cv)
	}
	if _, err := InterArrivalCV(regular[:2]); err == nil {
		t.Fatal("too few events accepted")
	}
}

func TestConcentrationByNode(t *testing.T) {
	var events []xid.Event
	add := func(node string, n int) {
		for i := 0; i < n; i++ {
			events = append(events, xid.Event{Time: xid.Time(period.Start.UnixNano()), Node: node, Code: xid.MMU})
		}
	}
	add("bad", 80)
	add("meh", 15)
	add("ok", 5)
	nc, err := ConcentrationByNode(events, 10)
	if err != nil {
		t.Fatal(err)
	}
	if nc.Nodes != 3 || nc.WorstNode != "bad" || nc.WorstCount != 80 {
		t.Fatalf("concentration = %+v", nc)
	}
	if math.Abs(nc.Top1Share-0.8) > 1e-12 || math.Abs(nc.Top5Share-1.0) > 1e-12 {
		t.Fatalf("shares = %+v", nc)
	}
	if nc.Gini < 0.8 {
		t.Fatalf("gini = %v, want high concentration", nc.Gini)
	}

	// Uniform spread: low Gini.
	events = nil
	for i := 0; i < 10; i++ {
		add(string(rune('a'+i)), 10)
	}
	nc, err = ConcentrationByNode(events, 10)
	if err != nil {
		t.Fatal(err)
	}
	if nc.Gini > 1e-9 {
		t.Fatalf("uniform gini = %v", nc.Gini)
	}
}

func TestConcentrationValidation(t *testing.T) {
	if _, err := ConcentrationByNode(nil, 10); err == nil {
		t.Fatal("no events accepted")
	}
	if _, err := ConcentrationByNode([]xid.Event{{Node: "a"}}, 0); err == nil {
		t.Fatal("zero fleet accepted")
	}
	events := []xid.Event{{Node: "a"}, {Node: "b"}}
	if _, err := ConcentrationByNode(events, 1); err == nil {
		t.Fatal("fleet smaller than node set accepted")
	}
}

func TestLagCorrelation(t *testing.T) {
	base := period.Start
	var events []xid.Event
	// 10 PMU errors; 8 followed by an MMU error 5 s later on the same GPU.
	for i := 0; i < 10; i++ {
		at := base.Add(time.Duration(i) * time.Hour)
		events = append(events, xid.Event{Time: xid.Time(at.UnixNano()), Node: "n1", GPU: 0, Code: xid.PMUSPIReadFail})
		if i < 8 {
			events = append(events, xid.Event{Time: xid.Time(at.Add(5 * time.Second).UnixNano()), Node: "n1", GPU: 0, Code: xid.MMU})
		}
	}
	// An MMU error on a different device must not count.
	events = append(events, xid.Event{Time: xid.Time(base.Add(time.Second).UnixNano()), Node: "n2", GPU: 0, Code: xid.MMU})

	frac, err := LagCorrelation(events, xid.PMUSPIReadFail, xid.MMU, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(frac-0.8) > 1e-12 {
		t.Fatalf("lag correlation = %v, want 0.8", frac)
	}
	// A tiny window misses the follow-ups.
	frac, err = LagCorrelation(events, xid.PMUSPIReadFail, xid.MMU, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if frac != 0 {
		t.Fatalf("1s lag correlation = %v", frac)
	}
	if _, err := LagCorrelation(events, xid.GSPError, xid.MMU, time.Minute); err == nil {
		t.Fatal("no leading events accepted")
	}
	if _, err := LagCorrelation(events, xid.PMUSPIReadFail, xid.MMU, 0); err == nil {
		t.Fatal("zero window accepted")
	}
}
