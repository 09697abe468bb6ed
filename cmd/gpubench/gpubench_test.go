package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testConfig is a run small enough for go test: inputs at scale 0.005 and
// a zero window, so each workload times one operation.
func testConfig(t *testing.T, workload string) config {
	return config{workload: workload, seed: 1, scale: 0.005, work: t.TempDir()}
}

func loadBench(t *testing.T) benchDef {
	t.Helper()
	var def benchDef
	if err := readJSON("../../BENCHMARK.json", &def); err != nil {
		t.Fatal(err)
	}
	return def
}

func TestBenchmarkNamesTheWorkloads(t *testing.T) {
	def := loadBench(t)
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Fatalf("BENCHMARK.json workloads %q, gpubench runs %q", got, want)
	}
}

func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	def := loadBench(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			c := testConfig(t, name)
			if name == "daemon-http" {
				c.seconds = 1
			}
			p, err := measurePart(c, time.Duration(c.seconds*float64(time.Second)))
			if err != nil {
				t.Fatal(err)
			}
			res := pool(c, []*part{p, p})
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Errors)
			}
			checkMetrics(t, def.EndToEnd, res.Metrics)
			checkMetrics(t, []metricDef{{Name: "op_ms", Unit: "ms"}}, res.Ungated)
		})
	}
}

// checkMetrics requires exactly the listed metrics, with their units and
// positive, finite values.
func checkMetrics(t *testing.T, want []metricDef, got map[string]summary) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
	for _, m := range want {
		s, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case s.Unit != m.Unit:
			t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, s.Unit, m.Unit)
		case !(s.Value > 0) || math.IsInf(s.Value, 0):
			t.Errorf("metric %s = %v", m.Name, s.Value)
		}
	}
}

func TestTraceSpansAreWellFormed(t *testing.T) {
	c := testConfig(t, "sim-e2e")
	c.trace = true
	res, doc, err := traceRun(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Errors)
	}
	checkMetrics(t, loadBench(t).PerLayer, res.Metrics)

	byID := map[int]span{}
	for i, s := range doc.Spans {
		if s.ID != i+1 {
			t.Fatalf("span %d has id %d", i, s.ID)
		}
		byID[s.ID] = s
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Errorf("span %d (%s): parent %d missing or later", s.ID, s.Name, s.Parent)
		case p.Trace != s.Trace:
			t.Errorf("span %d (%s) in trace %s, parent in %s", s.ID, s.Name, s.Trace, p.Trace)
		case s.Start < p.Start || s.End > p.End:
			t.Errorf("span %d (%s) [%d,%d] outside parent %s [%d,%d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for _, root := range append(workloadNames(), "parts") {
		if got := rootSeconds(doc, root); !(got > 0) {
			t.Errorf("no traced iteration of %s", root)
		}
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeJSON(path, doc); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"ladder", path}, &out, &out); code != 0 {
		t.Fatalf("ladder exit %d: %s", code, out.String())
	}
	for _, w := range workloadNames() {
		if !strings.Contains(out.String(), "ladder "+w+":") {
			t.Errorf("ladder output lacks %s:\n%s", w, out.String())
		}
	}
}

func TestCorruptReferenceFailsTheRun(t *testing.T) {
	c := testConfig(t, "logs-warm")
	w := workloadByName(c.workload)
	e, _, err := setUp(c, []*workloadDef{w}, filepath.Join(c.work, "inputs"))
	if err != nil {
		t.Fatal(err)
	}
	e.ref.tableI[len(e.ref.tableI)/2] ^= 1
	if _, err := w.measure(e, 0, 1); err != nil {
		t.Fatal(err)
	}
	res := &workloadResult{Attempted: e.t.attempted, Failed: e.t.failed, Errors: e.t.errs}
	if res.Failed == 0 {
		t.Fatal("a corrupted reference failed no operation")
	}
	var out bytes.Buffer
	if code := printResult(c, res, &out, &bytes.Buffer{}); code == 0 {
		t.Fatal("exit code 0 after failed operations")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Correct || last.Failed != res.Failed || last.Attempted != res.Attempted {
		t.Fatalf("last line %+v, want correct=false with %d of %d failed", last, res.Failed, res.Attempted)
	}
}

func TestPoolChecksPartsAgree(t *testing.T) {
	c := testConfig(t, "logs-warm")
	a := &part{SetupS: 1, Inputs: "100 ab", OpMS: []float64{1, 3}, AllocMB: []float64{2, 2}, RSSMB: []float64{5, 5}, Attempted: 3}
	b := &part{SetupS: 3, Inputs: "100 ab", OpMS: []float64{2}, AllocMB: []float64{2}, RSSMB: []float64{7}, Attempted: 2}
	res := pool(c, []*part{a, b, b})
	if res.Failed != 0 || res.Attempted != 3+2+2+2 || res.Ops != 4 {
		t.Fatalf("pooled %d ops, %d of %d failed; want 4 ops, 0 of 9", res.Ops, res.Failed, res.Attempted)
	}
	if got := res.Metrics["setup_s"].Value; got != 3 {
		t.Errorf("setup_s %v, want the median set-up 3", got)
	}
	if got := res.Metrics["peak_rss_mb"].Value; got != 6 {
		t.Errorf("peak_rss_mb %v, want the median over pooled operations 6", got)
	}
	b.Inputs = "100 cd"
	if res := pool(c, []*part{a, b}); res.Failed != 1 {
		t.Errorf("parts with different inputs: %d failed, want 1", res.Failed)
	}
}

// verdicts maps "workload metric" to the verdict of each compare row.
func verdicts(out string) map[string]string {
	v := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) >= 3 {
			v[f[0]+" "+f[1]] = f[len(f)-1]
		}
	}
	return v
}

func TestCompareVerdicts(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"compare", "-bench", "../../BENCHMARK.json",
		"-base", "testdata/base.json", "-new", "testdata/new.json"}, &out, &out)
	if code != 1 {
		t.Errorf("exit %d with a regression, want 1", code)
	}
	got := verdicts(out.String())
	for key, want := range map[string]string{
		"sim-e2e alloc_mb":       "unchanged",
		"logs-cold alloc_mb":     "regression",
		"logs-warm alloc_mb":     "improved",
		"daemon-ingest alloc_mb": "unresolved", // 5% more, but its spread is 30%
		// 20% more, past the bound, but one run whose operations' quartiles
		// lie 50% apart cannot tell that from noise.
		"daemon-ingest peak_rss_mb": "unresolved",
		"daemon-http alloc_mb":      "unchanged",
		"daemon-http op_ms":         "ungated",
		"daemon-http failed_frac":   "regression",
	} {
		if got[key] != want {
			t.Errorf("%s: %q, want %q in:\n%s", key, got[key], want, out.String())
		}
	}

	out.Reset()
	if code := run([]string{"compare", "-bench", "../../BENCHMARK.json",
		"-base", "testdata/base.json", "-new", "testdata/base.json"}, &out, &out); code != 0 {
		t.Errorf("exit %d comparing a result with itself:\n%s", code, out.String())
	}
}

func TestCompareAcrossRuns(t *testing.T) {
	// With several files per side the spread is the run-to-run spread of
	// their medians, so three identical runs per side resolve the changes
	// that one noisy run could not.
	var out bytes.Buffer
	code := run([]string{"compare", "-bench", "../../BENCHMARK.json",
		"-base", "testdata/base.json,testdata/base.json,testdata/base.json",
		"-new", "testdata/new.json,testdata/new.json,testdata/new.json"}, &out, &out)
	got := verdicts(out.String())
	if code != 1 || got["daemon-ingest alloc_mb"] != "unchanged" || got["logs-cold alloc_mb"] != "regression" ||
		got["daemon-ingest peak_rss_mb"] != "regression" {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
}

func TestCompareSpreadOverBound(t *testing.T) {
	def := loadBench(t)
	// runs gives daemon-ingest's alloc_mb the listed run medians.
	runs := func(path string, medians ...float64) []*resultDoc {
		var docs []*resultDoc
		for _, v := range medians {
			d := new(resultDoc)
			if err := readJSON(path, d); err != nil {
				t.Fatal(err)
			}
			m := d.Workloads["daemon-ingest"].Metrics["alloc_mb"]
			m.Value = v
			d.Workloads["daemon-ingest"].Metrics["alloc_mb"] = m
			docs = append(docs, d)
		}
		return docs
	}
	verdict := func(base, next []*resultDoc) string {
		for _, r := range compareDocs(def, base, next) {
			if r.workload == "daemon-ingest" && r.metric == "alloc_mb" {
				return r.verdict
			}
		}
		return "missing"
	}
	base := runs("testdata/base.json", 100, 140)
	// Every new run beats every base run: improved despite the spread.
	if v := verdict(base, runs("testdata/new.json", 90, 95)); v != "improved" {
		t.Errorf("new runs all lower: %s, want improved", v)
	}
	// Overlapping runs with a spread past the bound stay unresolved, even
	// with the new median 15% higher.
	if v := verdict(base, runs("testdata/new.json", 130, 145)); v != "unresolved" {
		t.Errorf("overlapping runs: %s, want unresolved", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) with the default exclusive method.
	for _, c := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{4, 8}, 3, 9},
		{[]float64{1.25, 2, 3.5, 9}, 1.4375, 7.625},
	} {
		if q1, q3 := quartiles(c.data); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "-1"},
		{"extra"},
		{"-part", "-workload", "sim-e2e"}, // a part needs -out
	} {
		var out bytes.Buffer
		if code := run(args, &out, &out); code != 2 {
			t.Errorf("run %v: exit %d, want 2", args, code)
		}
	}
}
