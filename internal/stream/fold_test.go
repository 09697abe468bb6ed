package stream_test

import (
	"testing"

	"gpuresilience/internal/stream"
)

// TestSnapshotsConcurrentWithIngest builds snapshots in a loop while
// another goroutine consumes the fixture log and advances the watermark,
// so the engine's Stage III fold grows by many small suffixes folded under
// its own lock while ingest holds the other. Run it under -race. The final
// snapshot must still equal the batch documents TestStreamingMatchesBatch
// compares against.
func TestSnapshotsConcurrentWithIngest(t *testing.T) {
	f := loadFixture(t)
	want := batchDocs(t, f)
	eng, err := stream.New(f.streamConfig())
	if err != nil {
		t.Fatal(err)
	}

	// built signals a finished snapshot. Ingest waits for one every
	// snapEvery lines, so snapshots land all through the log, each one
	// overlapping the ingest of the lines after it.
	const snapEvery = 256
	done := make(chan struct{})
	built := make(chan struct{}, 1)
	exited := make(chan struct{})
	var (
		snapshots int
		snapErr   error
	)
	go func() {
		defer close(exited)
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := stream.BuildSnapshot(eng); err != nil {
				snapErr = err
				return
			}
			snapshots++
			select {
			case built <- struct{}{}:
			default:
			}
		}
	}()

	feed := stream.NewFeed(eng, "syslog")
	for i, line := range f.lines {
		if err := feed.Line(line); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if (i+1)%64 == 0 {
			eng.Advance()
		}
		if (i+1)%snapEvery == 0 {
			select {
			case <-built:
			case <-exited: // a failed snapshot; reported below
			}
		}
	}
	eng.FlushAll()
	close(done)
	<-exited
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	t.Logf("%d snapshots built during ingest", snapshots)

	snap, err := stream.BuildSnapshot(eng)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range stream.TableNames() {
		if got := string(snap.Tables[name].Text); got != want[name] {
			t.Errorf("table %s text diverges from batch\n--- streaming\n%s\n--- batch\n%s", name, got, want[name])
		}
	}
}
