package core_test

import (
	"sort"
	"testing"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/core"
	"gpuresilience/internal/xid"
)

// truthLedger accounts for the simulator's true errors against Stage II's
// output. Every true error is recovered (a kept event has its key and its
// microsecond instant), merged (a kept event of its key at most Δt before
// it suppressed it), or unexplained; every kept event is matched to a true
// error, a split train (a duplicate line less than 2Δt after a true error
// of its key), or unmatched otherwise.
type truthLedger struct {
	truth, recovered, merged, unexplained int
	// byOwnTruth is how many of merged lie within Δt after an earlier true
	// error of their key; the rest were merged by a split train.
	byOwnTruth int

	kept, matched, splitTrain, otherUnmatched int
}

// ledgerKey is a (node, GPU, code) key at a microsecond instant: the log
// stamps microseconds, and the truth keeps nanoseconds.
type ledgerKey struct {
	key xid.Key
	us  int64
}

func micros(t xid.Time) int64 { return int64(t) / 1000 }

// newTruthLedger matches kept, Stage II's output at Δt = window, to truth.
func newTruthLedger(truth, kept []xid.Event, window time.Duration) truthLedger {
	dt := micros(xid.Time(window))
	l := truthLedger{truth: len(truth), kept: len(kept)}
	left := make(map[ledgerKey]int)     // kept events not matched yet
	keptAt := make(map[xid.Key][]int64) // each key's kept instants, ascending
	for _, ev := range kept {
		left[ledgerKey{ev.Key(), micros(ev.Time)}]++
		keptAt[ev.Key()] = append(keptAt[ev.Key()], micros(ev.Time))
	}
	truthAt := make(map[xid.Key][]int64)
	for _, ev := range truth {
		truthAt[ev.Key()] = append(truthAt[ev.Key()], micros(ev.Time))
	}
	for _, ts := range truthAt {
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	}
	// latest is the last instant of ts at or before us, if any.
	latest := func(ts []int64, us int64, strict bool) (int64, bool) {
		i := sort.Search(len(ts), func(i int) bool { return ts[i] > us || (strict && ts[i] == us) })
		if i == 0 {
			return 0, false
		}
		return ts[i-1], true
	}
	for _, ev := range truth {
		k := ledgerKey{ev.Key(), micros(ev.Time)}
		if left[k] > 0 {
			left[k]--
			l.recovered++
			continue
		}
		if at, ok := latest(keptAt[k.key], k.us, false); ok && k.us-at < dt {
			l.merged++
			if at, ok := latest(truthAt[k.key], k.us, true); ok && k.us-at < dt {
				l.byOwnTruth++
			}
			continue
		}
		l.unexplained++
	}
	for k, n := range left {
		if at, ok := latest(truthAt[k.key], k.us, false); ok && k.us-at < 2*dt {
			l.splitTrain += n
		} else {
			l.otherUnmatched += n
		}
	}
	l.matched = l.recovered
	return l
}

// TestTruthLedger: Stage II over the simulated raw logs accounts for every
// true error, at seeds 1 and 2, scale 0.05, and Δt of 0, 1 s, 5 s and
// 60 s. In every cell no true error is unexplained. The test pins each
// cell's counts and the two identities truth = recovered + merged +
// unexplained and kept = matched + unmatched.
//
// At Δt = 5 s almost every lost true error falls within Δt of an earlier
// true error of its key, the loss §III-B accepts. The one left at seed 2,
// an Uncontained Memory Error (XID 95) on gpub013 GPU 3, is merged by a
// split train: the duplicate train of a true error 8.08 s before it
// outlasted Δt, so its line 5.08 s in was kept, and that kept line cast
// the window that took the error 3.00 s later.
//
// At 5 s the kept events that match no true error are all split trains:
// each is a duplicate line less than 2Δt after a true error of its key,
// kept because it came at least Δt after the last kept event of its key.
// All but one (a GSP Error at seed 2) are XID 95, whose lines repeat
// 26 times on average, a mean 40 ms apart (syslog.DefaultWriterConfig), so
// a long train outlasts 5 s. Neither is a pipeline fault: Stage II applies
// the paper's rule, and a fixed Δt splits any duplicate train longer than
// itself. The split trains do reach Table I's counts.
//
// The other windows move the balance as the rule says they must. At
// Δt = 0 nothing is coalesced: every true error is recovered, and every
// duplicate line is kept and counts as other unmatched, since no line
// falls less than 2Δt after anything. At 1 s many trains outlast Δt:
// some 790 kept lines per seed are split trains, and some 445 more, 2 s
// or more after the latest true error of their key, count as other
// unmatched. At 60 s some 400 true errors per seed fall
// within Δt of an earlier one of their key and are merged, and only two
// to four trains split.
func TestTruthLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two 0.05-scale fleets")
	}
	type cell struct {
		seed   uint64
		window time.Duration
	}
	want := map[cell]truthLedger{
		{1, 0}: {truth: 4160, recovered: 4160,
			kept: 60510, matched: 4160, otherUnmatched: 56350},
		{1, time.Second}: {truth: 4160, recovered: 4148, merged: 12, byOwnTruth: 8,
			kept: 5380, matched: 4148, splitTrain: 785, otherUnmatched: 447},
		{1, 5 * time.Second}: {truth: 4160, recovered: 4116, merged: 44, byOwnTruth: 44,
			kept: 4140, matched: 4116, splitTrain: 24},
		{1, time.Minute}: {truth: 4160, recovered: 3765, merged: 395, byOwnTruth: 395,
			kept: 3769, matched: 3765, splitTrain: 4},
		{2, 0}: {truth: 4231, recovered: 4231,
			kept: 61481, matched: 4231, otherUnmatched: 57250},
		{2, time.Second}: {truth: 4231, recovered: 4217, merged: 14, byOwnTruth: 12,
			kept: 5451, matched: 4217, splitTrain: 790, otherUnmatched: 444},
		{2, 5 * time.Second}: {truth: 4231, recovered: 4180, merged: 51, byOwnTruth: 50,
			kept: 4203, matched: 4180, splitTrain: 23},
		{2, time.Minute}: {truth: 4231, recovered: 3822, merged: 409, byOwnTruth: 409,
			kept: 3824, matched: 3822, splitTrain: 2},
	}
	for _, seed := range []uint64{1, 2} {
		out, err := core.EndToEnd(core.EndToEndConfig{
			Cluster:       calib.NewScenario(seed, 0.05).Cluster,
			Pipeline:      pipeCfg(),
			KeepRawEvents: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, window := range []time.Duration{0, time.Second, 5 * time.Second, time.Minute} {
			kept, err := coalesce.Events(out.RawEvents, window)
			if err != nil {
				t.Fatal(err)
			}
			l := newTruthLedger(out.Truth.Events, kept, window)
			if l.unexplained != 0 {
				t.Errorf("seed %d, Δt %v: %d true errors unexplained", seed, window, l.unexplained)
			}
			if l.truth != l.recovered+l.merged+l.unexplained {
				t.Errorf("seed %d, Δt %v: truth %d != recovered %d + merged %d + unexplained %d",
					seed, window, l.truth, l.recovered, l.merged, l.unexplained)
			}
			if l.kept != l.matched+l.splitTrain+l.otherUnmatched {
				t.Errorf("seed %d, Δt %v: kept %d != matched %d + split trains %d + other unmatched %d",
					seed, window, l.kept, l.matched, l.splitTrain, l.otherUnmatched)
			}
			if w := want[cell{seed, window}]; l != w {
				t.Errorf("seed %d, Δt %v: ledger %+v, want %+v", seed, window, l, w)
			}
		}
	}
}
