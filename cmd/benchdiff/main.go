// Command benchdiff converts `go test -bench` output to JSON and gates a
// run against a committed baseline. It is the CI perf job's benchstat
// substitute (see docs/performance.md):
//
//	go test -run '^$' -bench ... -count=4 . | benchdiff fmt -o BENCH_baseline.json
//	benchdiff compare -base BENCH_baseline.json -new bench.json \
//	    -max-time-ratio 1.6 -max-alloc-ratio 1.15
//
// fmt also records the run's machine: the `go test` header plus this
// process's GOMAXPROCS, CPU count and Go version. compare ignores it, and
// exits 1 when any shared benchmark regresses past a gate. Time
// gates absorb machine differences and are loose; allocation gates are
// machine-independent and tight.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"gpuresilience/internal/benchfmt"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "fmt":
		err = runFmt(os.Args[2:])
	case "compare":
		err = runCompare(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchdiff fmt [-o out.json] [bench.txt]
  benchdiff compare -base base.json -new new.json [-max-time-ratio R] [-max-alloc-ratio R]`)
	os.Exit(2)
}

func runFmt(args []string) error {
	fs := flag.NewFlagSet("fmt", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	in := io.Reader(os.Stdin)
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	set, err := benchfmt.Parse(in)
	if err != nil {
		return err
	}
	if set.Machine == nil {
		set.Machine = &benchfmt.Machine{}
	}
	set.Machine.GOMAXPROCS = runtime.GOMAXPROCS(0)
	set.Machine.NumCPU = runtime.NumCPU()
	set.Machine.GoVersion = runtime.Version()
	sort.Slice(set.Benchmarks, func(i, k int) bool {
		return set.Benchmarks[i].Name < set.Benchmarks[k].Name
	})
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

func runCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	basePath := fs.String("base", "", "baseline JSON (required)")
	newPath := fs.String("new", "", "current-run JSON (required)")
	maxTime := fs.Float64("max-time-ratio", 1.6, "fail when ns/op grows past this ratio (<=0 disables)")
	maxAlloc := fs.Float64("max-alloc-ratio", 1.15, "fail when allocs/op or B/op grows past this ratio (<=0 disables)")
	fs.Parse(args)
	if *basePath == "" || *newPath == "" {
		return fmt.Errorf("compare needs -base and -new")
	}
	base, err := loadSet(*basePath)
	if err != nil {
		return err
	}
	cur, err := loadSet(*newPath)
	if err != nil {
		return err
	}
	deltas := benchfmt.Compare(base, cur, *maxTime, *maxAlloc)
	if len(deltas) == 0 {
		return fmt.Errorf("no benchmarks shared between %s and %s", *basePath, *newPath)
	}
	failed := 0
	for _, d := range deltas {
		status := "ok"
		if d.Violation != "" {
			status = "FAIL " + d.Violation
			failed++
		}
		fmt.Printf("%-50s time %6.2fx  allocs %6.2fx  bytes %6.2fx  %s\n",
			d.Name, d.TimeRatio, d.AllocRatio, d.BytesRatio, status)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d benchmarks regressed past the gates", failed, len(deltas))
	}
	fmt.Printf("all %d shared benchmarks within gates (time <=%.2fx, alloc <=%.2fx)\n",
		len(deltas), *maxTime, *maxAlloc)
	return nil
}

func loadSet(path string) (*benchfmt.Set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set benchfmt.Set
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &set, nil
}
