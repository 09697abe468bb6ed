package stream_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"gpuresilience/internal/coalesce"
	"gpuresilience/internal/logfuzz"
	"gpuresilience/internal/stream"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// TestConsumeLineAllocs: with room left in the pending block, a record
// line and a noise line through ConsumeLine allocate nothing, because
// Stage I keeps a string line's node and detail as its substrings.
func TestConsumeLineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	eng := newEngine(t)
	record := string(syslog.AppendLine(nil, event(0, "gpub001", 1, 79), 0, "feed"))
	noise := string(syslog.AppendNoise(nil, opT(0), "gpub001", 0))
	lineNo := int64(1)
	// The first record opens the source and the first pending block.
	if err := eng.ConsumeLine("feed", lineNo, record); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, line := range []string{record, noise} {
			lineNo++
			if err := eng.ConsumeLine("feed", lineNo, line); err != nil {
				t.Fatal(err)
			}
		}
	})
	st := eng.Status()
	if st.PendingEvents != 102 || st.Extract != (syslog.ExtractStats{Lines: 203, XIDLines: 102, Skipped: 101}) {
		t.Fatalf("%d pending, extract %+v; want 102 records and 101 noise lines", st.PendingEvents, st.Extract)
	}
	if allocs != 0 {
		t.Fatalf("ConsumeLine of a record and a noise line allocates %v times, want 0", allocs)
	}
}

// checkLedger asserts the stream's line identities after delivered lines:
// every delivered line is counted once by Stage I or as a duplicate, every
// line Stage I counts is a record, a malformed line or a skipped one, and
// every record is sealed, pending or quarantined as late.
func checkLedger(t *testing.T, what string, st stream.Status, delivered int) {
	t.Helper()
	x := st.Extract
	dups := 0
	for _, src := range st.Sources {
		dups += int(src.Dups)
	}
	if delivered != x.Lines+dups {
		t.Errorf("%s: %d lines delivered, Stage I counted %d and %d duplicates", what, delivered, x.Lines, dups)
	}
	if x.Lines != x.XIDLines+x.Malformed+x.Skipped {
		t.Errorf("%s: Lines %d != XIDLines %d + Malformed %d + Skipped %d",
			what, x.Lines, x.XIDLines, x.Malformed, x.Skipped)
	}
	if held := st.SealedRawEvents + st.PendingEvents + int(st.Quarantine.Late); x.XIDLines != held {
		t.Errorf("%s: %d Xid lines, %d sealed + %d pending + %d late",
			what, x.XIDLines, st.SealedRawEvents, st.PendingEvents, st.Quarantine.Late)
	}
}

// deliverer hands lines[lo:hi] of a log to an engine, numbered from lo+1,
// advancing the watermark every 64 lines, and returns how many lines it
// delivered.
type deliverer func(t *testing.T, eng *stream.Engine, lines []string, lo, hi int) int

func byConsumeLine(t *testing.T, eng *stream.Engine, lines []string, lo, hi int) int {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := eng.ConsumeLine("syslog", int64(i+1), lines[i]); err != nil {
			t.Fatal(err)
		}
		if (i+1)%64 == 0 {
			eng.Advance()
		}
	}
	return hi - lo
}

// byTailer delivers through a Tailer over a file in dir that holds
// lines[:hi], started after line lo as a resumed daemon starts it.
func byTailer(dir string) deliverer {
	path := filepath.Join(dir, "syslog.txt")
	return func(t *testing.T, eng *stream.Engine, lines []string, lo, hi int) int {
		t.Helper()
		if err := os.WriteFile(path, []byte(strings.Join(lines[:hi], "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		offset := 0
		for _, line := range lines[:lo] {
			offset += len(line) + 1
		}
		tl := stream.NewTailer(path)
		defer tl.Close()
		tl.SetStart(int64(offset), int64(lo))
		n, err := tl.Poll(func(source string, lineNo int64, line string) error {
			if err := eng.ConsumeLine(source, lineNo, line); err != nil {
				return err
			}
			if lineNo%64 == 0 {
				eng.Advance()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
}

// damagedFixture is the fixture log damaged by logfuzz with every op but
// oversize, plus two lines past syslog.MaxLineBytes, one of them a record.
func damagedFixture(t *testing.T, f *fixture) []string {
	t.Helper()
	var ops []logfuzz.Op
	for _, op := range logfuzz.AllOps() {
		if op != logfuzz.OpOversize {
			ops = append(ops, op)
		}
	}
	clean := []byte(strings.Join(f.lines, "\n") + "\n")
	damaged, rep, err := logfuzz.Corrupt(clean, logfuzz.Config{Seed: 7, Rate: 0.05, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Touched) == 0 {
		t.Fatal("nothing damaged")
	}
	lines := strings.Split(strings.TrimSuffix(string(damaged), "\n"), "\n")
	third := len(lines) / 3
	overlong := lines[third] + strings.Repeat("x", syslog.MaxLineBytes)
	lines = slices.Insert(lines, 2*third, strings.Repeat("y", syslog.MaxLineBytes+1))
	return slices.Insert(lines, third, overlong)
}

// TestStreamLineConservation checks the line identities on the daemon
// path: tailer-fed and ConsumeLine-fed engines, over the fixture log and a
// damaged copy, in one run and across a kill and resume whose producer
// redelivers the lines before the cut.
func TestStreamLineConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence fixture skipped in -short mode")
	}
	f := loadFixture(t)
	logs := []struct {
		name  string
		lines []string
	}{{"clean", f.lines}, {"damaged", damagedFixture(t, f)}}
	const overlap = 200
	for _, log := range logs {
		n := len(log.lines)
		for _, feeder := range []struct {
			name    string
			deliver deliverer
		}{{"ConsumeLine", byConsumeLine}, {"tailer", byTailer(t.TempDir())}} {
			what := log.name + " log, " + feeder.name

			eng := newEngine(t)
			delivered := feeder.deliver(t, eng, log.lines, 0, n)
			checkLedger(t, what, eng.Status(), delivered)
			eng.FlushAll()
			checkLedger(t, what+", flushed", eng.Status(), delivered)
			st := eng.Status()
			if log.name == "damaged" && (st.Extract.Malformed == 0 || st.Quarantine.Late == 0) {
				t.Errorf("%s: the damage left no malformed line or no late event: %+v, %d late",
					what, st.Extract, st.Quarantine.Late)
			}

			cut := n / 2
			first := newEngine(t)
			delivered = feeder.deliver(t, first, log.lines, 0, cut)
			first.Advance()
			path := filepath.Join(t.TempDir(), "checkpoint.json")
			if err := stream.SaveCheckpoint(path, first.Checkpoint()); err != nil {
				t.Fatal(err)
			}
			cp, err := stream.LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := stream.Resume(testConfig(), cp)
			if err != nil {
				t.Fatal(err)
			}
			delivered += feeder.deliver(t, resumed, log.lines, cut-overlap, n)
			what += ", resumed"
			checkLedger(t, what, resumed.Status(), delivered)
			resumed.FlushAll()
			checkLedger(t, what+", flushed", resumed.Status(), delivered)
			if st := resumed.Status(); st.Extract != eng.Status().Extract || st.Sources[0].Dups != overlap {
				t.Errorf("%s: extract %+v with %d duplicates, want the one run's %+v with %d",
					what, st.Extract, st.Sources[0].Dups, eng.Status().Extract, overlap)
			}
		}
	}
}

// TestTailerCarriageReturnsMatchBatch: the tailer hands a line over with
// its carriage returns, so Stage I drops exactly one, as batch Stage I
// does, and a CR-CR-LF record keeps one CR in its detail on both paths.
func TestTailerCarriageReturnsMatchBatch(t *testing.T) {
	var log bytes.Buffer
	for i, eol := range []string{"\r\n", "\r\r\n", "\n"} {
		log.Write(syslog.AppendLine(nil, event(time.Duration(i)*time.Minute, "gpub001", i, 79), 0, "feed"))
		log.WriteString(eol)
	}
	path := filepath.Join(t.TempDir(), "syslog.txt")
	if err := os.WriteFile(path, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t)
	tl := stream.NewTailer(path)
	defer tl.Close()
	if _, err := tl.Poll(eng.ConsumeLine); err != nil {
		t.Fatal(err)
	}
	requireBatchStageI(t, eng, log.Bytes())
	if st := eng.Status(); st.SealedEvents != 3 {
		t.Fatalf("%d events sealed, want 3", st.SealedEvents)
	}
}

// requireBatchStageI flushes eng, then fails unless its Stage I counters
// equal strict batch Stage I's over data and its sealed events equal batch
// Stage II's kept events, node and detail included.
func requireBatchStageI(t *testing.T, eng *stream.Engine, data []byte) {
	t.Helper()
	var events []xid.Event
	want, _, err := syslog.Extract(bytes.NewReader(data), syslog.Options{Workers: 1}, func(ev xid.Event) error {
		events = append(events, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	kept, err := coalesce.Events(events, testConfig().Pipeline.CoalesceWindow)
	if err != nil {
		t.Fatal(err)
	}
	eng.FlushAll()
	if got := eng.Status().Extract; got != want {
		t.Fatalf("engine counts %+v, strict Extract %+v", got, want)
	}
	var sealed []xid.Event
	for _, b := range eng.Checkpoint().Sealed {
		sealed = append(sealed, b...)
	}
	if !slices.Equal(sealed, kept) {
		t.Fatalf("engine sealed %d events, batch keeps %d:\n got %q\nwant %q", len(sealed), len(kept), sealed, kept)
	}
}

// consumeSeeds are FuzzConsumeLineMatchesBatch's corpus: a small log of
// records (every fifth repeated a second later) and noise, the
// same log with CR-LF line ends, and logfuzz-damaged copies.
func consumeSeeds(f *testing.F) [][]byte {
	var lines []string
	for i := 0; i < 40; i++ {
		ev := event(time.Duration(i/2)*7*time.Second, fmt.Sprintf("gpub%03d", 1+i%3), i%4, []xid.Code{31, 48, 79}[i%3])
		ev.Detail = "fault"
		lines = append(lines, string(syslog.AppendLine(nil, ev, 1000+i, "python")))
		if i%5 == 0 {
			ev.Time += xid.Time(time.Second)
			lines = append(lines, string(syslog.AppendLine(nil, ev, 1000+i, "python")))
		}
		if i%6 == 0 {
			lines = append(lines, string(syslog.AppendNoise(nil, opT(time.Duration(i)*time.Second), "gpub002", i)))
		}
	}
	clean := []byte(strings.Join(lines, "\n") + "\n")
	seeds := [][]byte{
		nil,
		[]byte("\n"),
		[]byte("no newline at end"),
		clean,
		[]byte(strings.Join(lines, "\r\n") + "\r\n"),
	}
	for _, seed := range []uint64{1, 2, 3} {
		damaged, _, err := logfuzz.Corrupt(clean, logfuzz.Config{Seed: seed, Rate: 0.2, OversizeBytes: 8 << 10})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, damaged)
	}
	return seeds
}

// FuzzConsumeLineMatchesBatch: the input's lines pushed through
// ConsumeLine one at a time and flushed give strict batch Stage I's
// counters over the same bytes, and the engine's sealed events are batch
// Stage II's kept events, node and detail included. The split drops only
// the empty tail after a final newline, as batch Stage I counts lines.
func FuzzConsumeLineMatchesBatch(f *testing.F) {
	for _, s := range consumeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		lines := strings.Split(string(data), "\n")
		if lines[len(lines)-1] == "" {
			lines = lines[:len(lines)-1]
		}
		eng := newEngine(t)
		for i, line := range lines {
			if err := eng.ConsumeLine("fuzz", int64(i+1), line); err != nil {
				t.Fatal(err)
			}
		}
		requireBatchStageI(t, eng, data)
	})
}
