package survival

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"gpuresilience/internal/randx"
	"gpuresilience/internal/stats"
	"gpuresilience/internal/xid"
)

var period = stats.Period{
	Name:  "op",
	Start: time.Date(2022, 10, 1, 0, 0, 0, 0, time.UTC),
	End:   time.Date(2025, 3, 14, 0, 0, 0, 0, time.UTC),
}

func TestKaplanMeierNoCensoring(t *testing.T) {
	// Without censoring KM equals the empirical survival function.
	obs := []Observation{{Hours: 1}, {Hours: 2}, {Hours: 3}, {Hours: 4}}
	curve, err := KaplanMeier(obs)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.75, 0.5, 0.25, 0}
	if len(curve) != 4 {
		t.Fatalf("curve length = %d", len(curve))
	}
	for i, p := range curve {
		if math.Abs(p.Survival-want[i]) > 1e-12 {
			t.Fatalf("S(%v) = %v, want %v", p.TimeHours, p.Survival, want[i])
		}
	}
	if MedianSurvival(curve) != 2 {
		t.Fatalf("median = %v", MedianSurvival(curve))
	}
}

func TestKaplanMeierCensoring(t *testing.T) {
	// Censored subjects leave the risk set without an event.
	obs := []Observation{
		{Hours: 1}, {Hours: 2, Censored: true}, {Hours: 3},
	}
	curve, err := KaplanMeier(obs)
	if err != nil {
		t.Fatal(err)
	}
	// At t=1: 3 at risk, 1 event -> S=2/3. At t=3: 1 at risk, 1 event -> 0.
	if len(curve) != 2 {
		t.Fatalf("curve = %+v", curve)
	}
	if math.Abs(curve[0].Survival-2.0/3) > 1e-12 || curve[0].AtRisk != 3 {
		t.Fatalf("first point = %+v", curve[0])
	}
	if curve[1].Survival != 0 || curve[1].AtRisk != 1 {
		t.Fatalf("second point = %+v", curve[1])
	}
}

func TestKaplanMeierAllCensored(t *testing.T) {
	obs := []Observation{{Hours: 5, Censored: true}, {Hours: 7, Censored: true}}
	curve, err := KaplanMeier(obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 0 {
		t.Fatalf("curve = %+v", curve)
	}
	if !math.IsNaN(MedianSurvival(curve)) {
		t.Fatal("median should be NaN with no events")
	}
}

func TestKaplanMeierValidation(t *testing.T) {
	if _, err := KaplanMeier(nil); err == nil {
		t.Fatal("empty observations accepted")
	}
	if _, err := KaplanMeier([]Observation{{Hours: -1}}); err == nil {
		t.Fatal("negative observation accepted")
	}
}

// Property: survival is non-increasing and within [0, 1].
func TestKaplanMeierMonotoneProperty(t *testing.T) {
	f := func(raw []uint16, cens []bool) bool {
		if len(raw) == 0 {
			return true
		}
		obs := make([]Observation, len(raw))
		for i, r := range raw {
			obs[i] = Observation{Hours: float64(r)}
			if i < len(cens) {
				obs[i].Censored = cens[i]
			}
		}
		curve, err := KaplanMeier(obs)
		if err != nil {
			return false
		}
		last := 1.0
		for _, p := range curve {
			if p.Survival < -1e-12 || p.Survival > last+1e-12 {
				return false
			}
			last = p.Survival
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFitWeibullRecoversParameters(t *testing.T) {
	rng := randx.NewStream(1)
	for _, want := range []Weibull{
		{Shape: 0.7, Scale: 10},
		{Shape: 1.0, Scale: 5},
		{Shape: 2.5, Scale: 100},
	} {
		samples := make([]float64, 20000)
		for i := range samples {
			samples[i] = rng.Weibull(want.Shape, want.Scale)
		}
		got, err := FitWeibull(samples)
		if err != nil {
			t.Fatalf("shape %v: %v", want.Shape, err)
		}
		if math.Abs(got.Shape-want.Shape) > 0.05*want.Shape {
			t.Fatalf("shape = %v, want %v", got.Shape, want.Shape)
		}
		if math.Abs(got.Scale-want.Scale) > 0.05*want.Scale {
			t.Fatalf("scale = %v, want %v", got.Scale, want.Scale)
		}
	}
}

func TestWeibullDerivedQuantities(t *testing.T) {
	w := Weibull{Shape: 1, Scale: 4} // exponential with mean 4
	if math.Abs(w.Mean()-4) > 1e-9 {
		t.Fatalf("mean = %v", w.Mean())
	}
	if math.Abs(w.Survival(4)-math.Exp(-1)) > 1e-12 {
		t.Fatalf("S(4) = %v", w.Survival(4))
	}
	if w.Survival(0) != 1 || w.Survival(-1) != 1 {
		t.Fatal("survival at origin wrong")
	}
	// Exponential hazard is constant 1/scale.
	if math.Abs(w.Hazard(1)-0.25) > 1e-12 || math.Abs(w.Hazard(10)-0.25) > 1e-12 {
		t.Fatal("exponential hazard not constant")
	}
	// Decreasing hazard for shape < 1 (infant mortality).
	im := Weibull{Shape: 0.5, Scale: 4}
	if im.Hazard(1) <= im.Hazard(10) {
		t.Fatal("shape<1 hazard should decrease")
	}
	if !math.IsNaN(im.Hazard(0)) {
		t.Fatal("hazard at 0 should be NaN")
	}
}

func TestFitWeibullValidation(t *testing.T) {
	if _, err := FitWeibull([]float64{1, 2}); err == nil {
		t.Fatal("too-small sample accepted")
	}
	if _, err := FitWeibull([]float64{1, 2, -3}); err == nil {
		t.Fatal("negative sample accepted")
	}
	if _, err := FitWeibull([]float64{2, 2, 2, 2}); err == nil {
		t.Fatal("zero-variance sample accepted")
	}
}

func TestInterEventHours(t *testing.T) {
	base := period.Start
	events := []xid.Event{
		{Time: xid.Time(base.UnixNano()), Node: "n1", GPU: 0, Code: xid.MMU},
		{Time: xid.Time(base.Add(2 * time.Hour).UnixNano()), Node: "n1", GPU: 0, Code: xid.MMU},
		{Time: xid.Time(base.Add(5 * time.Hour).UnixNano()), Node: "n1", GPU: 0, Code: xid.MMU},
		{Time: xid.Time(base.Add(time.Hour).UnixNano()), Node: "n2", GPU: 1, Code: xid.NVLink},
		// Excluded code must not contribute.
		{Time: xid.Time(base.Add(3 * time.Hour).UnixNano()), Node: "n2", GPU: 1, Code: xid.GPUSoftware},
	}
	gaps := InterEventHours(events, nil)
	if len(gaps) != 2 {
		t.Fatalf("gaps = %v", gaps)
	}
	if math.Abs(gaps[0]-2) > 1e-9 || math.Abs(gaps[1]-3) > 1e-9 {
		t.Fatalf("gaps = %v", gaps)
	}
	// Filtered to a single code.
	only := InterEventHours(events, func(c xid.Code) bool { return c == xid.NVLink })
	if len(only) != 0 {
		t.Fatalf("NVLink gaps = %v (single event has no gap)", only)
	}
}

func TestDeviceLifetimes(t *testing.T) {
	fleet := []xid.Key{
		{Node: "n1", GPU: 0}, {Node: "n1", GPU: 1}, {Node: "n2", GPU: 0},
	}
	events := []xid.Event{
		{Time: xid.Time(period.Start.Add(100 * time.Hour).UnixNano()), Node: "n1", GPU: 0, Code: xid.GSPRPCTimeout},
		{Time: xid.Time(period.Start.Add(50 * time.Hour).UnixNano()), Node: "n1", GPU: 0, Code: xid.GSPRPCTimeout},
		{Time: xid.Time(period.Start.Add(-time.Hour).UnixNano()), Node: "n1", GPU: 1, Code: xid.GSPRPCTimeout}, // pre-period
		{Time: xid.Time(period.Start.Add(10 * time.Hour).UnixNano()), Node: "n2", GPU: 0, Code: xid.MMU},       // non-fatal
	}
	fatal := func(c xid.Code) bool { return c == xid.GSPRPCTimeout }
	obs, err := DeviceLifetimes(events, period, fleet, fatal)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 3 {
		t.Fatalf("obs = %+v", obs)
	}
	if obs[0].Censored || math.Abs(obs[0].Hours-50) > 1e-9 {
		t.Fatalf("n1/0 = %+v (first fatal error wins)", obs[0])
	}
	if !obs[1].Censored || !obs[2].Censored {
		t.Fatalf("censoring wrong: %+v", obs)
	}
	if math.Abs(obs[1].Hours-period.Hours()) > 1e-9 {
		t.Fatalf("censor horizon = %v", obs[1].Hours)
	}
}

func TestDeviceLifetimesValidation(t *testing.T) {
	if _, err := DeviceLifetimes(nil, period, nil, func(xid.Code) bool { return true }); err == nil {
		t.Fatal("empty fleet accepted")
	}
	bad := stats.Period{Start: period.End, End: period.Start}
	if _, err := DeviceLifetimes(nil, bad, []xid.Key{{}}, func(xid.Code) bool { return true }); err == nil {
		t.Fatal("bad period accepted")
	}
}

// TestExponentialGapsFitShapeOne: inter-error gaps of a Poisson process fit
// a Weibull with shape ~1, which is the sanity check the extension applies
// to the simulated error streams.
func TestExponentialGapsFitShapeOne(t *testing.T) {
	rng := randx.NewStream(9)
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = rng.Exponential(0.1)
	}
	w, err := FitWeibull(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.Shape-1) > 0.05 {
		t.Fatalf("shape = %v, want ~1", w.Shape)
	}
	if math.Abs(w.Mean()-10) > 0.5 {
		t.Fatalf("mean = %v, want ~10", w.Mean())
	}
}
