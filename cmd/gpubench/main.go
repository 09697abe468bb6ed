// Command gpubench is the repository's end-to-end benchmark. It generates
// every input from a seed, runs one workload for a fixed window, checks each
// output against a reference rendered from the same inputs, and prints the
// end-to-end metrics. With -trace 1 it times each layer instead, from the
// benchmark's side of each call, and prints the per-layer ladder.
//
// Usage:
//
//	gpubench [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-out result.json] [-scale x]
//	gpubench compare -base a.json[,a2.json...] -new b.json[,b2.json...] [-bench BENCHMARK.json]
//	gpubench ladder trace.json
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the workloads,
// the metrics and their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// defaultScale sizes the simulated fleet the inputs come from: about 61k raw
// log lines (8 MB) and 72k jobs (9 MB of sacct dump). It keeps one
// simulate→tables iteration near a second on two cores, so a 15 s window
// holds over a dozen of them and three set-ups take a few seconds.
const defaultScale = 0.05

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	scale    float64
	// part makes this process one part of a measured run (runParts).
	part bool
	// work is where results, traces and generated inputs go; tests move it.
	work string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return runCompare(args[1:], stdout, stderr)
		case "ladder":
			return runLadder(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("gpubench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := config{scale: defaultScale, work: ".bench_build"}
	var trace int
	fs.StringVar(&c.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Uint64Var(&c.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&c.seconds, "seconds", 15, "measurement window of each workload, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 times each layer from outside and prints the per-layer metrics")
	fs.StringVar(&c.out, "out", "", "also write the full result (quartiles, tails, provenance) to this file")
	fs.Float64Var(&c.scale, "scale", defaultScale, "fleet scale the inputs are simulated at; results at different scales do not compare")
	fs.BoolVar(&c.part, "part", false, "internal: measure one part of a run for -seconds and write it to -out")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (trace != 0 && trace != 1) || c.seconds < 0 || !(c.scale > 0) {
		fmt.Fprintln(stderr, "gpubench: usage: gpubench [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-out file] [-scale x]")
		return 2
	}
	c.trace = trace == 1
	if c.workload != "all" && workloadByName(c.workload) == nil {
		fmt.Fprintf(stderr, "gpubench: unknown workload %q (want one of %s, or all)\n", c.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if c.part {
		return runPart(c, stderr)
	}
	if c.workload == "all" && !c.trace {
		return runAll(c, stdout, stderr)
	}
	var res *workloadResult
	var doc *traceDoc
	var err error
	if c.trace {
		res, doc, err = traceRun(c)
	} else {
		res, err = runParts(c, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "gpubench: %v\n", err)
		return 1
	}
	if doc != nil {
		path := filepath.Join(c.work, "trace.json")
		if err := writeJSON(path, doc); err != nil {
			fmt.Fprintf(stderr, "gpubench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %s (%d spans)\n", path, len(doc.Spans))
		writeLadder(stdout, doc)
	}
	return printResult(c, res, stdout, stderr)
}

// printResult prints a finished run: the human-readable table, then, as the last
// line, the JSON result. A run with any failed operation exits non-zero.
func printResult(c config, res *workloadResult, stdout, stderr io.Writer) int {
	prov := provenanceNow(c.seed)
	fmt.Fprintf(stdout, "gpubench %s  %s\n", c.workload, prov)
	writeTable(stdout, res)
	for _, e := range res.Errors {
		fmt.Fprintf(stderr, "gpubench: %s: %s\n", c.workload, e)
	}
	if c.out != "" {
		doc := resultDoc{Provenance: prov, Workloads: map[string]*workloadResult{c.workload: res}}
		if err := writeJSON(c.out, doc); err != nil {
			fmt.Fprintf(stderr, "gpubench: %v\n", err)
			return 1
		}
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, make(map[string]metricValue, len(res.Metrics))}
	for name, s := range res.Metrics {
		line.Metrics[name] = metricValue{Value: s.Value, Unit: s.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "gpubench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if res.Failed > 0 {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runAll runs every workload in a child process of its own, so each peak
// RSS belongs to one workload, and merges the children's result files.
func runAll(c config, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "gpubench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		fmt.Fprintf(stderr, "gpubench: %v\n", err)
		return 1
	}
	merged := resultDoc{Provenance: provenanceNow(c.seed), Workloads: map[string]*workloadResult{}}
	status := 0
	for _, name := range workloadNames() {
		file := filepath.Join(c.work, "result-"+name+".json")
		// A result left by an earlier run must not stand in for this one.
		if err := os.Remove(file); err != nil && !os.IsNotExist(err) {
			fmt.Fprintf(stderr, "gpubench: %v\n", err)
			return 1
		}
		cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(c.seed),
			"-seconds", fmt.Sprint(c.seconds), "-scale", fmt.Sprint(c.scale), "-out", file)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			// A failed child's result is still merged when it wrote one:
			// its failed operations are what compare's failed_frac counts.
			fmt.Fprintf(stderr, "gpubench: workload %s: %v\n", name, err)
			status = 1
		}
		var doc resultDoc
		if err := readJSON(file, &doc); err != nil {
			fmt.Fprintf(stderr, "gpubench: %v\n", err)
			status = 1
			continue
		}
		merged.Workloads[name] = doc.Workloads[name]
	}
	if c.out != "" {
		if err := writeJSON(c.out, merged); err != nil {
			fmt.Fprintf(stderr, "gpubench: %v\n", err)
			return 1
		}
	}
	return status
}

// runParts measures c.workload in parts child processes run one after
// another, each for its share of the window, and pools their results.
func runParts(c config, stderr io.Writer) (*workloadResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		return nil, err
	}
	var ps []*part
	for i := 0; i < parts; i++ {
		path := filepath.Join(c.work, fmt.Sprintf("part-%d-%d.json", os.Getpid(), i))
		cmd := exec.Command(exe, "-part", "-workload", c.workload, "-seed", fmt.Sprint(c.seed),
			"-seconds", fmt.Sprint(c.seconds/parts), "-scale", fmt.Sprint(c.scale), "-out", path)
		cmd.Stderr = stderr
		err := cmd.Run()
		p := new(part)
		if err == nil {
			err = readJSON(path, p)
		}
		os.Remove(path)
		if err != nil {
			return nil, fmt.Errorf("part %d of %s: %w", i+1, c.workload, err)
		}
		ps = append(ps, p)
	}
	return pool(c, ps), nil
}

// runPart is one child of runParts. It exits 0 whenever it wrote its part,
// failed operations included; the parent counts those.
func runPart(c config, stderr io.Writer) int {
	if c.workload == "all" || c.trace || c.out == "" {
		fmt.Fprintln(stderr, "gpubench: -part needs one -workload, -trace 0 and -out")
		return 2
	}
	p, err := measurePart(c, time.Duration(c.seconds*float64(time.Second)))
	if err == nil {
		err = writeJSON(c.out, p)
	}
	if err != nil {
		fmt.Fprintf(stderr, "gpubench: %v\n", err)
		return 1
	}
	return 0
}

// resultDoc is a result file: what ran, where, and every metric's summary.
type resultDoc struct {
	Provenance provenance                 `json:"provenance"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

// workloadResult is one workload's run.
type workloadResult struct {
	Scale   float64 `json:"scale"`
	Seconds float64 `json:"seconds"`
	// Ops counts the timed operations: iterations of a batch workload,
	// requests of daemon-http.
	Ops       int      `json:"ops"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Metrics are the gated ones BENCHMARK.json lists: end-to-end, or with
	// -trace 1 per-layer. Ungated ones are printed and recorded only.
	Metrics map[string]summary `json:"metrics"`
	Ungated map[string]summary `json:"ungated,omitempty"`
}

func writeTable(w io.Writer, res *workloadResult) {
	fmt.Fprintf(w, "scale %g  window %gs  ops %d  attempted %d  failed %d\n",
		res.Scale, res.Seconds, res.Ops, res.Attempted, res.Failed)
	fmt.Fprintf(w, "%-28s %14s %-6s %8s %14s %14s  %s\n", "metric", "median", "unit", "n", "q1", "q3", "tail")
	for _, group := range []struct {
		metrics map[string]summary
		note    string
	}{{res.Metrics, ""}, {res.Ungated, "  (ungated)"}} {
		names := make([]string, 0, len(group.metrics))
		for name := range group.metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := group.metrics[name]
			tail := ""
			if s.Tail != "" {
				tail = fmt.Sprintf("%s %.6g", s.Tail, s.TailVal)
			}
			fmt.Fprintf(w, "%-28s %14.6g %-6s %8d %14.6g %14.6g  %s%s\n", name, s.Value, s.Unit, s.N, s.Q1, s.Q3, tail, group.note)
		}
	}
}

// provenance records the machine and build a result came from.
type provenance struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Revision   string `json:"revision"`
	Dirty      bool   `json:"dirty"`
	Seed       uint64 `json:"seed"`
}

func provenanceNow(seed uint64) provenance {
	p := provenance{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Revision:   "unknown",
		Seed:       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

// String is the provenance on one line, as result tables head it.
func (p provenance) String() string {
	dirty := ""
	if p.Dirty {
		dirty = " (dirty)"
	}
	return fmt.Sprintf("seed %d  GOMAXPROCS %d  nproc %d  %s  %s %s/%s  rev %s%s",
		p.Seed, p.GOMAXPROCS, p.NumCPU, p.CPU, p.Go, p.GOOS, p.GOARCH, p.Revision, dirty)
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	return nil
}
