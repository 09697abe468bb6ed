package slurmsim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzParsePlacement checks the placement codec never panics and round-trips
// whatever it accepts.
func FuzzParsePlacement(f *testing.F) {
	f.Add("gpub001:0,1,2,3;gpub002:1,3")
	f.Add("")
	f.Add("x:")
	f.Add(":0")
	f.Add("a:0;;b:1")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePlacement(s)
		if err != nil {
			return
		}
		// Anything accepted must re-encode and re-parse to the same form.
		enc := p.String()
		back, err := ParsePlacement(enc)
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", enc, err)
		}
		if back.String() != enc {
			t.Fatalf("round trip unstable: %q -> %q", enc, back.String())
		}
	})
}

// FuzzLoadDBLine checks the sacct parser never panics on corrupt rows, and
// that whatever it accepts dumps as the reference writer does and survives
// DumpDB and a second LoadDB. The dump
// keeps whole seconds, as sacct does, so the reloaded times are the loaded
// ones truncated to the second. An accepted row also loads twice in one DB
// beside its canonical re-encoding, all three sharing one placement.
func FuzzLoadDBLine(f *testing.F) {
	f.Add("1|name|user|gpuA100x4|2|2023-01-01T00:00:00Z|2023-01-01T01:00:00Z|2023-01-01T02:00:00Z|COMPLETED|0:0|n1:0,1|0")
	f.Add("x|y")
	f.Add("")
	f.Add("-7|a b|u|p|+3|2023-01-01T00:00:00.75+01:00||2262-04-11T23:47:16.854775807Z|FAILED|-2147483648:9|n2: 1,-1;n1:+0|yes")
	f.Fuzz(func(t *testing.T, line string) {
		r := strings.NewReader("JobID|JobName|User|Partition|ReqGPUS|Submit|Start|End|State|ExitCode|Placement|ML\n" + line + "\n")
		jobs, err := LoadDB(r)
		if err != nil {
			return
		}
		for _, j := range jobs {
			if j == nil {
				t.Fatal("nil job from parser")
			}
		}
		checkDumpAgainstOracle(t, jobs)
		var buf bytes.Buffer
		if err := DumpDB(&buf, jobs); err != nil {
			t.Fatal(err)
		}
		back, err := LoadDB(&buf)
		if err != nil {
			t.Fatalf("reload of %q failed: %v\ndump:\n%s", line, err, buf.Bytes())
		}
		if len(back) != len(jobs) {
			t.Fatalf("reload of %q gives %d jobs, want %d", line, len(back), len(jobs))
		}
		for i, j := range jobs {
			want := *j
			for _, at := range []*Time{&want.Submit, &want.Start, &want.End} {
				*at -= *at % Time(time.Second)
			}
			if !reflect.DeepEqual(*back[i], want) {
				t.Fatalf("reload of %q:\n got %+v\nwant %+v", line, *back[i], want)
			}
		}
		checkPlacementShared(t, line)
	})
}

// checkPlacementShared loads row twice in one DB, then a third time with
// its Placement field re-encoded by Placement.String. Each row's placement
// must equal ParsePlacement of its own field, and all three must be one
// shared value.
func checkPlacementShared(t *testing.T, row string) {
	t.Helper()
	fields := strings.Split(row, "|")
	if len(fields) != 12 || strings.ContainsAny(row, "\n\r") {
		return // not one row as LoadDB's scanner sees it
	}
	want, err := ParsePlacement(fields[10])
	if err != nil {
		t.Fatalf("row %q loaded, but ParsePlacement(%q): %v", row, fields[10], err)
	}
	fields[10] = want.String()
	canonical := strings.Join(fields, "|")
	jobs, err := LoadDB(strings.NewReader(dbHeader + "\n" + row + "\n" + row + "\n" + canonical + "\n"))
	if err != nil {
		t.Fatalf("row %q twice, then %q: %v", row, canonical, err)
	}
	if len(jobs) != 3 {
		t.Fatalf("row %q twice, then %q: %d jobs, want 3", row, canonical, len(jobs))
	}
	for i, j := range jobs {
		if !reflect.DeepEqual(j.Place.Nodes(), want) {
			t.Fatalf("row %q, copy %d: placement %v, want %v", row, i+1, j.Place.Nodes(), want)
		}
		if j.Place != jobs[0].Place {
			t.Fatalf("row %q, copy %d: placement at %p, not the first copy's %p", row, i+1, j.Place, jobs[0].Place)
		}
	}
}
