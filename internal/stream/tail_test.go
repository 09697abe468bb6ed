package stream_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpuresilience/internal/logfuzz"
	"gpuresilience/internal/stream"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// collect gathers delivered lines for assertions.
type collect struct {
	lines []string
	nos   []int64
}

func (c *collect) fn(source string, lineNo int64, line string) error {
	c.lines = append(c.lines, line)
	c.nos = append(c.nos, lineNo)
	return nil
}

func appendFile(t *testing.T, path, text string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(text); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTailerFollowsAppends: complete lines are delivered in order; a
// partially written line is held back until its newline arrives, then
// delivered whole.
func TestTailerFollowsAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "syslog.txt")
	tl := stream.NewTailer(path)
	defer tl.Close()
	var c collect

	// File does not exist yet: nothing, no error.
	if n, err := tl.Poll(c.fn); err != nil || n != 0 {
		t.Fatalf("pre-create poll = %d, %v", n, err)
	}

	appendFile(t, path, "one\ntwo\npart")
	if n, err := tl.Poll(c.fn); err != nil || n != 2 {
		t.Fatalf("poll = %d, %v; want 2 complete lines", n, err)
	}
	if len(c.lines) != 2 || c.lines[0] != "one" || c.lines[1] != "two" {
		t.Fatalf("lines = %q", c.lines)
	}

	// Finish the partial line and add a CRLF one.
	appendFile(t, path, "ial\r\nthree\n")
	if n, err := tl.Poll(c.fn); err != nil || n != 2 {
		t.Fatalf("poll = %d, %v; want the completed line + one more", n, err)
	}
	// The carriage return is Stage I's to drop (syslog.CountLine), so a
	// CR-LF line reaches it exactly as batch Stage I reads it.
	if c.lines[2] != "partial\r" || c.lines[3] != "three" {
		t.Fatalf("lines = %q", c.lines)
	}
	if c.nos[3] != 4 {
		t.Fatalf("line numbers = %v, want sequential", c.nos)
	}
}

// TestTailerRotation: rename-and-recreate is detected; the old file is
// drained before switching, and line numbers keep climbing across the
// switch so the engine's duplicate guard stays valid.
func TestTailerRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "syslog.txt")
	tl := stream.NewTailer(path)
	defer tl.Close()
	var c collect

	appendFile(t, path, "a1\na2\n")
	if _, err := tl.Poll(c.fn); err != nil {
		t.Fatal(err)
	}

	// Rotate: rename the live file, write a final line to the old
	// incarnation, then recreate the path with new content.
	rotated := filepath.Join(dir, "syslog.txt.1")
	if err := os.Rename(path, rotated); err != nil {
		t.Fatal(err)
	}
	appendFile(t, rotated, "a3\n")
	appendFile(t, path, "b1\nb2\n")

	if n, err := tl.Poll(c.fn); err != nil || n != 3 {
		t.Fatalf("rotation poll = %d, %v; want old tail + new file", n, err)
	}
	want := []string{"a1", "a2", "a3", "b1", "b2"}
	if len(c.lines) != len(want) {
		t.Fatalf("lines = %q, want %q", c.lines, want)
	}
	for i, w := range want {
		if c.lines[i] != w {
			t.Fatalf("line %d = %q, want %q", i, c.lines[i], w)
		}
		if c.nos[i] != int64(i+1) {
			t.Fatalf("line number %d = %d, want monotonic across rotation", i, c.nos[i])
		}
	}
	if tl.Lines() != 5 {
		t.Fatalf("Lines() = %d, want 5", tl.Lines())
	}
}

// TestTailerTruncation: copytruncate resets the offset and re-reads from
// the start with fresh line numbers.
func TestTailerTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "syslog.txt")
	tl := stream.NewTailer(path)
	defer tl.Close()
	var c collect

	appendFile(t, path, "old1\nold2\n")
	if _, err := tl.Poll(c.fn); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	appendFile(t, path, "new1\n")
	if n, err := tl.Poll(c.fn); err != nil || n != 1 {
		t.Fatalf("post-truncate poll = %d, %v", n, err)
	}
	if c.lines[len(c.lines)-1] != "new1" || c.nos[len(c.nos)-1] != 3 {
		t.Fatalf("lines=%q nos=%v", c.lines, c.nos)
	}
	if tl.Offset() != int64(len("new1\n")) {
		t.Fatalf("offset = %d after truncation", tl.Offset())
	}
}

// TestTailerSetStart: a resumed tailer skips checkpointed bytes.
func TestTailerSetStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "syslog.txt")
	appendFile(t, path, "one\ntwo\nthree\n")
	tl := stream.NewTailer(path)
	defer tl.Close()
	tl.SetStart(int64(len("one\ntwo\n")), 2)
	var c collect
	if n, err := tl.Poll(c.fn); err != nil || n != 1 {
		t.Fatalf("poll = %d, %v", n, err)
	}
	if c.lines[0] != "three" || c.nos[0] != 3 {
		t.Fatalf("resumed delivery = %q %v", c.lines, c.nos)
	}
}

// TestTailerOverlongLine: the tailer never holds more than
// syslog.MaxLineBytes+1 bytes of a line. An unterminated tail under the cap
// waits for its newline; once it passes the cap it is counted as one
// malformed line straight away and its bytes are consumed as they arrive,
// so the offset moves past it and the next line is read normally.
func TestTailerOverlongLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "syslog.txt")
	tl := stream.NewTailer(path)
	defer tl.Close()
	eng := newEngine(t)
	poll := func(want int) {
		t.Helper()
		if n, err := tl.Poll(eng.ConsumeLine); err != nil || n != want {
			t.Fatalf("poll = %d, %v; want %d lines", n, err, want)
		}
	}

	appendFile(t, path, strings.Repeat("x", 3<<20))
	poll(0) // under the cap: still a line being written
	if tl.Offset() != 0 {
		t.Fatalf("offset = %d, want 0 while the tail is under the cap", tl.Offset())
	}
	appendFile(t, path, strings.Repeat("x", 2<<20))
	poll(1) // 5 MiB, no newline: overlong, counted now
	if tl.Offset() != 5<<20 {
		t.Fatalf("offset = %d, want %d past the dropped tail", tl.Offset(), 5<<20)
	}
	xidLine := string(syslog.AppendLine(nil, event(0, "gpub001", 1, 79), 0, "feed"))
	appendFile(t, path, "\n"+xidLine+"\n")
	poll(1) // the overlong line's newline is dropped with it
	want := syslog.ExtractStats{Lines: 2, XIDLines: 1, Malformed: 1}
	if got := eng.Status().Extract; got != want {
		t.Fatalf("extract = %+v, want %+v", got, want)
	}
	size := int64(5<<20 + 1 + len(xidLine) + 1)
	if tl.Offset() != size {
		t.Fatalf("offset = %d, want the file size %d", tl.Offset(), size)
	}

	// An overlong line that arrives whole is one malformed line too.
	appendFile(t, path, strings.Repeat("y", syslog.MaxLineBytes+1)+"\nnoise\n")
	poll(2)
	want = syslog.ExtractStats{Lines: 4, XIDLines: 1, Malformed: 2, Skipped: 1}
	if got := eng.Status().Extract; got != want {
		t.Fatalf("extract = %+v, want %+v", got, want)
	}
	if st := eng.Status(); st.Sources[0].Lines != 4 {
		t.Fatalf("source lines = %d, want 4", st.Sources[0].Lines)
	}
}

// TestTailerStageIMatchesBatch: on damaged input, the Stage I counters of
// a Tailer-fed engine equal strict batch Stage I's over the same bytes.
// logfuzz damages the fixture log with every op but oversize (which strict
// mode rejects outright), at several seeds.
func TestTailerStageIMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence fixture skipped in -short mode")
	}
	f := loadFixture(t)
	clean := []byte(strings.Join(f.lines, "\n") + "\n")
	var ops []logfuzz.Op
	for _, op := range logfuzz.AllOps() {
		if op != logfuzz.OpOversize {
			ops = append(ops, op)
		}
	}
	for seed := uint64(1); seed <= 4; seed++ {
		damaged, rep, err := logfuzz.Corrupt(clean, logfuzz.Config{Seed: seed, Rate: 0.05, Ops: ops})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Touched) == 0 {
			t.Fatalf("seed %d: nothing damaged", seed)
		}
		want, _, err := syslog.Extract(bytes.NewReader(damaged), syslog.Options{Workers: 1}, func(xid.Event) error { return nil })
		if err != nil {
			t.Fatal(err)
		}

		path := filepath.Join(t.TempDir(), "syslog.txt")
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		eng := newEngine(t)
		tl := stream.NewTailer(path)
		if _, err := tl.Poll(eng.ConsumeLine); err != nil {
			t.Fatal(err)
		}
		tl.Close()
		if got := eng.Status().Extract; got != want {
			t.Errorf("seed %d: tailer-fed engine counts %+v, strict Extract %+v", seed, got, want)
		}
	}
}
