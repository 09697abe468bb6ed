package workload

import (
	"math"
	"math/rand"
	"testing"
)

// warpBisect is the plain 50-step inverse-CDF bisection diurnalWarp
// replaced, kept verbatim as the oracle.
func warpBisect(u, a, peak float64) float64 {
	if u <= 0 {
		return 0
	}
	if u >= 1 {
		u = 1 - 1e-12
	}
	omega := 2 * math.Pi / 24
	k, sinPeak := a/(2*math.Pi), math.Sin(omega*peak) // loop-invariant terms
	cdf := func(tau float64) float64 {
		return tau/24 + k*(math.Sin(omega*(tau-peak))+sinPeak)
	}
	lo, hi := 0.0, 24.0
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < u {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// checkWarp fails unless the table walk and the oracle agree bit for bit.
func checkWarp(t testing.TB, w *diurnalWarp, u, a, peak float64) {
	if got, want := w.at(u), warpBisect(u, a, peak); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("a=%v peak=%v u=%v (bits %#x): table walk %v, bisection %v",
			a, peak, u, math.Float64bits(u), got, want)
	}
}

// TestWarpTreeMatchesBisection holds the precomputed-midpoint walk to the
// plain bisection, compared through math.Float64bits, for every amplitude
// and peak on a grid: a million uniform draws each (a tenth under -short),
// the edges u <= 0 and u >= 1, and u equal to, and one ulp either side of,
// every table entry, where the strict < decides the branch.
func TestWarpTreeMatchesBisection(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 100_000
	}
	for _, a := range []float64{0.05, 0.25, 0.4, 0.9} {
		for _, peak := range []float64{0, 3, 14, 23.5} {
			t.Run("", func(t *testing.T) {
				t.Parallel()
				w := newDiurnalWarp(a, peak)
				for _, u := range []float64{math.Inf(-1), -1, -1e-300, 0, math.Copysign(0, -1),
					1, 1 - 1e-12, math.Nextafter(1, 0), 1 + 1e-12, 2, math.Inf(1), math.NaN()} {
					checkWarp(t, w, u, a, peak)
				}
				for _, v := range w.tree[1:] {
					checkWarp(t, w, v, a, peak)
					checkWarp(t, w, math.Nextafter(v, math.Inf(-1)), a, peak)
					checkWarp(t, w, math.Nextafter(v, math.Inf(1)), a, peak)
				}
				rng := rand.New(rand.NewSource(int64(a*1000 + peak)))
				for i := 0; i < draws; i++ {
					checkWarp(t, w, rng.Float64(), a, peak)
				}
			})
		}
	}
}

// FuzzWarpEquivalence drives the table walk and the bisection oracle with
// arbitrary u, amplitudes in [0, 1) and peak hours in [0, 24).
func FuzzWarpEquivalence(f *testing.F) {
	f.Add(0.5, 0.25, 14.0)
	f.Add(0.0, 0.4, 0.0)
	f.Add(1.0, 0.9, 23.5)
	f.Add(0.999999999999, 0.05, 3.0)
	f.Add(1e-300, 0.5, 12.0)
	f.Fuzz(func(t *testing.T, u, a, peak float64) {
		a = math.Abs(math.Mod(a, 1))
		peak = math.Abs(math.Mod(peak, 24))
		if math.IsNaN(a) || math.IsNaN(peak) {
			t.Skip()
		}
		checkWarp(t, warpFor(a, peak), u, a, peak)
	})
}

// warpFor memoizes the last table: building one costs 2^warpDepth CDF
// evaluations, and the fuzzer's mutations often keep (a, peak).
var warpMemo struct {
	a, peak float64
	w       *diurnalWarp
}

func warpFor(a, peak float64) *diurnalWarp {
	if warpMemo.w == nil || warpMemo.a != a || warpMemo.peak != peak {
		warpMemo.a, warpMemo.peak, warpMemo.w = a, peak, newDiurnalWarp(a, peak)
	}
	return warpMemo.w
}
