package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const benchOut = `goos: linux
BenchmarkExtractParallel/workers=1-2 	 5	 200000000 ns/op	 30.00 MB/s	 5000000 B/op	 40000 allocs/op
BenchmarkJobDBLoad 	 10	 100000000 ns/op	 50.00 MB/s	 9000000 B/op	 90000 allocs/op
PASS
`

func TestFmtAndCompare(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(txt, []byte(benchOut), 0o644); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "base.json")
	if err := runFmt([]string{"-o", base, txt}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"BenchmarkExtractParallel/workers=1"`) {
		t.Fatalf("suffix not stripped in %s", data)
	}
	if !strings.Contains(string(data), `"goos": "linux"`) || !strings.Contains(string(data), `"go_version": "`+runtime.Version()+`"`) {
		t.Fatalf("machine not recorded in %s", data)
	}
	// Same run against itself is within every gate.
	if err := runCompare([]string{"-base", base, "-new", base}); err != nil {
		t.Fatal(err)
	}
	// A 2x time regression trips the time gate.
	slow := strings.ReplaceAll(benchOut, "200000000 ns/op", "400000000 ns/op")
	slowTxt := filepath.Join(dir, "slow.txt")
	if err := os.WriteFile(slowTxt, []byte(slow), 0o644); err != nil {
		t.Fatal(err)
	}
	slowJSON := filepath.Join(dir, "slow.json")
	if err := runFmt([]string{"-o", slowJSON, slowTxt}); err != nil {
		t.Fatal(err)
	}
	if err := runCompare([]string{"-base", base, "-new", slowJSON}); err == nil {
		t.Fatal("2x time regression passed the gate")
	}
	// The same numbers pass with the time gate disabled.
	if err := runCompare([]string{"-base", base, "-new", slowJSON, "-max-time-ratio", "0"}); err != nil {
		t.Fatal(err)
	}
}
