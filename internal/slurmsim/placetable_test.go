package slurmsim

import (
	"hash/maphash"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// placeRow is a DB row whose Placement column is place.
func placeRow(id int, place string) string {
	return strings.Join([]string{strconv.Itoa(id), "j", "u", "p", "1",
		"2023-01-01T00:00:00Z", "", "", "PENDING", "0:0", place, "0"}, "|")
}

// TestLoadDBSharesPlacements checks that rows with equal placements get one
// pointer, whatever the field's spelling, and each its own value.
func TestLoadDBSharesPlacements(t *testing.T) {
	fields := []string{
		"gpub001:0,1",
		"gpub001:0,1;gpub002:3",
		"gpub001:0,1",
		"gpub002:3;gpub001:0,1", // ParsePlacement's order tolerance
		"gpub001:0,1;gpub002:3",
		"gpub001:+0,1", // a sign is accepted
		"",
	}
	var rows []string
	for i, f := range fields {
		rows = append(rows, placeRow(i+1, f))
	}
	jobs, err := LoadDB(strings.NewReader(dbHeader + "\n" + strings.Join(rows, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	byText := map[string]*Placement{}
	for i, j := range jobs {
		want, err := ParsePlacement(fields[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(j.Place.Nodes(), want) {
			t.Fatalf("row %d: placement %v, want %v", i+1, j.Place.Nodes(), want)
		}
		if p, seen := byText[want.String()]; seen && p != j.Place {
			t.Fatalf("row %d: placement %q not shared", i+1, fields[i])
		}
		byText[want.String()] = j.Place
	}
	if jobs[6].Place != nil {
		t.Fatalf("empty field loads as %v, want nil", jobs[6].Place)
	}
	if len(byText) != 3 || jobs[0].Place == jobs[1].Place {
		t.Fatalf("%d distinct placements, want 3 (and rows 1 and 2 apart)", len(byText))
	}
}

// TestSchedulerSharesPlacements checks that jobs the scheduler places on the
// same GPUs, one after another, share one placement, on one host and on
// several.
func TestSchedulerSharesPlacements(t *testing.T) {
	s, eng := newSched(t, 2)
	run := func(jobs ...*Job) {
		t.Helper()
		for _, j := range jobs {
			if err := s.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		eng.RunAll()
	}
	a, b, c := job(4, time.Hour), job(4, time.Hour), job(4, time.Hour)
	run(a, b)
	run(c)
	// a and b took one host each; c, alone, took a's.
	if a.Place == b.Place || a.Place.Nodes().String() != "gpub001:0,1,2,3" {
		t.Fatalf("a on %v, b on %v", a.Place.Nodes(), b.Place.Nodes())
	}
	d, e := job(8, time.Hour), job(8, time.Hour)
	run(d)
	run(e)
	for _, p := range []struct {
		name   string
		j, was *Job
	}{{"c", c, a}, {"e", e, d}} {
		if p.j.Place != p.was.Place {
			t.Fatalf("%s on %v at %p, not the %p of a job on the same GPUs", p.name, p.j.Place.Nodes(), p.j.Place, p.was.Place)
		}
	}
	if d.Place.Nodes().String() != "gpub001:0,1,2,3;gpub002:0,1,2,3" {
		t.Fatalf("d on %v", d.Place.Nodes())
	}
}

// TestPlaceHashCollision forces the placement table's collision path: a
// placement whose hash slot holds another still gets its own value, in the
// loader and in the scheduler, and the slot keeps its first owner.
func TestPlaceHashCollision(t *testing.T) {
	other := &Placement{{Node: "other", GPUs: []int{9}}}
	collide := func(tbl *placeTable, text string) {
		tbl.byHash[maphash.Bytes(tbl.seed, []byte(text))] = other
	}
	check := func(what string, tbl *placeTable, got *Placement, want string) {
		t.Helper()
		if got.Nodes().String() != want {
			t.Fatalf("%s: placement %v, want %s", what, got.Nodes(), want)
		}
		if len(tbl.byHash) != 1 || other.String() != "other:9" {
			t.Fatalf("%s: collision changed the table: %d entries, slot %v", what, len(tbl.byHash), *other)
		}
	}

	ld := newDBLoader()
	collide(ld.places, "n1:0,1")
	for range 2 {
		j, err := ld.parseRow([]byte(placeRow(1, "n1:0,1")))
		if err != nil {
			t.Fatal(err)
		}
		check("loader", ld.places, j.Place, "n1:0,1")
	}

	s, _ := newSched(t, 2)
	const wide = "gpub001:0,1,2,3;gpub002:0,1,2,3"
	collide(s.places, wide)
	for range 2 {
		check("scheduler", s.places, s.tryPlace(8), wide)
	}
}
