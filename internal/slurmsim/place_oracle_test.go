package slurmsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"gpuresilience/internal/simclock"
)

// oracleTryPlace is the sort-based placement the level scan replaced, kept
// as the reference: collect every schedulable online host with free GPUs,
// sort by free count descending then name, and take greedily from the
// front. Its output is name-ordered like tryPlace's.
func (s *Scheduler) oracleTryPlace(gpus int) Placement {
	if recountFree(s) < gpus {
		return nil
	}
	var cands []*host
	for _, h := range s.hosts {
		if h.schedulable && h.online && h.freeCount > 0 {
			cands = append(cands, h)
		}
	}
	sort.Slice(cands, func(i, k int) bool {
		if cands[i].freeCount != cands[k].freeCount {
			return cands[i].freeCount > cands[k].freeCount
		}
		return cands[i].name < cands[k].name
	})
	var place Placement
	need := gpus
	for _, h := range cands {
		if need == 0 {
			break
		}
		take := min(h.freeCount, need)
		var idxs []int
		for i := 0; i < h.numGPUs && len(idxs) < take; i++ {
			if h.free[i] {
				idxs = append(idxs, i)
			}
		}
		place = append(place, NodeGPUs{Node: h.name, GPUs: idxs})
		need -= take
	}
	if need > 0 {
		return nil
	}
	sort.Slice(place, func(i, k int) bool { return place[i].Node < place[k].Node })
	return place
}

// recountFree is the host scan FreeGPUs's counter replaced.
func recountFree(s *Scheduler) int {
	total := 0
	for _, h := range s.hosts {
		if h.schedulable && h.online {
			total += h.freeCount
		}
	}
	return total
}

// checkPlace compares tryPlace with the oracle for job widths 1–16 and
// FreeGPUs with a recount.
func checkPlace(t *testing.T, s *Scheduler, where string) {
	t.Helper()
	if got, want := s.FreeGPUs(), recountFree(s); got != want {
		t.Fatalf("%s: FreeGPUs = %d, recount %d", where, got, want)
	}
	for gpus := 1; gpus <= 16; gpus++ {
		got, want := s.tryPlace(gpus), s.oracleTryPlace(gpus)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, %d GPUs: tryPlace = %v, oracle = %v", where, gpus, got, want)
		}
	}
}

// TestTryPlaceMatchesOracle drives the level scan and the sort-based oracle
// over random fleets — 4- and 8-GPU hosts registered out of name order,
// random free masks, random schedulable/online flags — and job widths 1–16.
// Each fleet then runs a random interleaving of job starts and natural
// ends with drains, undrains, node failures and restores, and after every
// operation the placements must still agree and FreeGPUs must equal a
// recount.
func TestTryPlaceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		eng := simclock.NewEngine(t0)
		s, err := NewScheduler(DefaultConfig(), eng)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range rng.Perm(2 + rng.Intn(14)) {
			gpus := 4
			if rng.Intn(3) == 0 {
				gpus = 8
			}
			if err := s.AddHost(fmt.Sprintf("gpub%03d", i+1), gpus); err != nil {
				t.Fatal(err)
			}
		}
		for _, h := range s.hosts {
			h.freeCount = 0
			for i := range h.free {
				h.free[i] = rng.Intn(2) == 0
				if h.free[i] {
					h.freeCount++
				}
			}
			h.schedulable = rng.Intn(5) != 0
			h.online = rng.Intn(8) != 0
		}
		s.reindex()
		checkPlace(t, s, fmt.Sprintf("trial %d", trial))
		for op := 0; op < 60; op++ {
			var what string
			h := s.hosts[rng.Intn(len(s.hosts))]
			switch r := rng.Intn(10); {
			case r < 4:
				gpus := 1 + rng.Intn(16)
				what = fmt.Sprintf("start %d GPUs", gpus)
				if p := s.tryPlace(gpus); p != nil {
					j := job(gpus, time.Duration(1+rng.Intn(120))*time.Minute)
					j.ID = 1000*trial + op
					s.start(j, p, eng.Now())
				}
			case r < 6:
				what = "step (a natural end or a pass)"
				eng.Step()
			case r < 8:
				ok := rng.Intn(2) == 0
				what = fmt.Sprintf("SetSchedulable(%s, %v)", h.name, ok)
				s.SetSchedulable(h.name, ok)
			case r < 9:
				what = "FailNode " + h.name
				s.FailNode(h.name)
			default:
				what = "RestoreNode " + h.name
				s.RestoreNode(h.name)
			}
			checkPlace(t, s, fmt.Sprintf("trial %d op %d after %s", trial, op, what))
		}
	}
}

// TestTryPlaceAllocs pins the placement's allocation budget: a job that
// fits on one host costs the placement and its index slice, nothing else.
func TestTryPlaceAllocs(t *testing.T) {
	s, _ := newSched(t, 8)
	allocs := testing.AllocsPerRun(100, func() {
		if p := s.tryPlace(4); len(p) != 1 {
			t.Fatalf("placement = %v", p)
		}
	})
	if allocs > 2 {
		t.Fatalf("tryPlace allocs = %.0f, budget 2", allocs)
	}
}
