package syslog_test

import (
	"bytes"
	"reflect"
	"testing"

	"gpuresilience/internal/logfuzz"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// fuzzSeeds returns corpus inputs for the extractor fuzz targets: clean
// formatted logs plus deterministic fuzzer-damaged variants of them, so the
// mutator starts from realistic corruption shapes rather than raw noise.
func fuzzSeeds(f *testing.F) [][]byte {
	var clean bytes.Buffer
	for i := 0; i < 50; i++ {
		clean.WriteString(record(i))
		clean.WriteByte('\n')
		if i%7 == 0 {
			clean.WriteString(syslog.FormatNoise(at, "gpub002", i))
			clean.WriteByte('\n')
		}
	}
	seeds := [][]byte{
		nil,
		[]byte("\n"),
		[]byte("no newline at end"),
		clean.Bytes(),
	}
	for _, seed := range []uint64{1, 2, 3} {
		damaged, _, err := logfuzz.Corrupt(clean.Bytes(), logfuzz.Config{
			Seed: seed, Rate: 0.2, OversizeBytes: 8 << 10,
		})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, damaged)
	}
	return seeds
}

// fuzzMaxInput caps fuzz inputs: classification behavior does not depend on
// input size past a few chunks, and unbounded inputs just slow the engine.
const fuzzMaxInput = 1 << 20

// FuzzExtract feeds arbitrary bytes through strict Extract on the
// line-at-a-time scan and on the chunked path: neither may panic, and when
// both succeed they must agree exactly.
func FuzzExtract(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzMaxInput {
			return
		}
		var seq, par []xid.Event
		stSeq, errSeq := syslog.ExtractParallel(bytes.NewReader(data), 1, func(ev xid.Event) error {
			seq = append(seq, ev)
			return nil
		})
		stPar, errPar := syslog.ExtractParallel(bytes.NewReader(data), 4, func(ev xid.Event) error {
			par = append(par, ev)
			return nil
		})
		if (errSeq == nil) != (errPar == nil) {
			t.Fatalf("strict paths disagree on failure: seq=%v par=%v", errSeq, errPar)
		}
		if errSeq == nil {
			if stSeq != stPar {
				t.Fatalf("stats diverge: %+v vs %+v", stSeq, stPar)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("events diverge: %d vs %d", len(seq), len(par))
			}
		}
	})
}

// FuzzExtractLenient feeds arbitrary bytes through lenient Extract at
// several worker counts: no panics, no budget surprises (budgets unlimited),
// and the ingestion report plus recovered events must be identical on the
// line-at-a-time scan and the chunked path.
func FuzzExtractLenient(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	lopt := &syslog.LenientOptions{MaxLineBytes: 64 << 10}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzMaxInput {
			return
		}
		run := func(workers int) ([]xid.Event, *syslog.IngestionReport) {
			var events []xid.Event
			_, rep, err := syslog.Extract(bytes.NewReader(data), syslog.Options{Workers: workers, Lenient: lopt},
				func(ev xid.Event) error {
					events = append(events, ev)
					return nil
				})
			if err != nil {
				t.Fatalf("lenient workers=%d failed (budgets unlimited): %v", workers, err)
			}
			return events, rep
		}
		seq, repSeq := run(1)
		for _, workers := range []int{2, 5} {
			par, repPar := run(workers)
			if !reflect.DeepEqual(repSeq, repPar) {
				t.Fatalf("workers=%d: reports diverge:\n%+v\nvs\n%+v", workers, repSeq, repPar)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("workers=%d: events diverge: %d vs %d", workers, len(seq), len(par))
			}
		}
		if repSeq.Records+repSeq.Noise+repSeq.BadTotal != repSeq.Lines {
			t.Fatalf("line accounting broken: %+v", repSeq)
		}
	})
}
