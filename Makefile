GO ?= go

.PHONY: all build test race fuzz bench bench-quick bench-json bench-gate bench-full report ablate examples service-check stress-check ingest-check fmt vet lint lint-baseline loc clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz pass over every text codec, including the differential targets
# that hold the byte-level parsers to their historical oracles, the
# Stage I engine's line-at-a-time vs chunked equivalence in both modes,
# Stage II over segmented input against its copy-and-sort oracle, with and
# without sorted runs merged in, the raw-logs path's one pass over a job DB
# against the slice functions over LoadDB's jobs, the compact event
# time's JSON against time.Time's, and the streaming engine's line ingest
# against batch Stage I and II.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzExtract$$' -fuzztime 10s ./internal/syslog/
	$(GO) test -run '^$$' -fuzz '^FuzzExtractLenient$$' -fuzztime 10s ./internal/syslog/
	$(GO) test -fuzz '^FuzzParseLine$$' -fuzztime 15s ./internal/syslog/
	$(GO) test -fuzz '^FuzzParseLineEquivalence$$' -fuzztime 15s ./internal/syslog/
	$(GO) test -fuzz '^FuzzParsePlacement$$' -fuzztime 10s ./internal/slurmsim/
	$(GO) test -fuzz '^FuzzLoadDBLine$$' -fuzztime 10s ./internal/slurmsim/
	$(GO) test -fuzz '^FuzzParseRowEquivalence$$' -fuzztime 10s ./internal/slurmsim/
	$(GO) test -run '^$$' -fuzz '^FuzzJobDBPass$$' -fuzztime 10s ./internal/core/
	$(GO) test -fuzz '^FuzzClassifyMLEquivalence$$' -fuzztime 10s ./internal/impact/
	$(GO) test -run '^$$' -fuzz '^FuzzWarpEquivalence$$' -fuzztime 10s ./internal/workload/
	$(GO) test -run '^$$' -fuzz '^FuzzStage2Segments$$' -fuzztime 10s ./internal/coalesce/
	$(GO) test -run '^$$' -fuzz '^FuzzStage2Runs$$' -fuzztime 10s ./internal/coalesce/
	$(GO) test -run '^$$' -fuzz '^FuzzEventTimeJSON$$' -fuzztime 10s ./internal/xid/
	$(GO) test -run '^$$' -fuzz '^FuzzConsumeLineMatchesBatch$$' -fuzztime 10s ./internal/stream/

# Regenerate every paper table and figure at full scale (~10 min).
bench:
	$(GO) test -bench=. -benchmem -timeout 60m ./...

# Same benches over a 5% dataset (~1 min).
bench-quick:
	GPURESIL_BENCH_SCALE=0.05 $(GO) test -bench=. -benchmem -timeout 30m ./...

# Hot-path benchmark set for the perf gate (sub-benchmarks included).
BENCH_SET = ^(BenchmarkClusterRun|BenchmarkExtractParallel|BenchmarkShardedExtract|BenchmarkPipelineParallel|BenchmarkStageIExtract|BenchmarkJobDBLoad|BenchmarkEndToEnd|BenchmarkStreamReplay|BenchmarkTableIII)$$

# Snapshot the hot-path benchmarks (5% dataset, 4 repeats, per-metric
# medians) into BENCH_baseline.json. Commit the refreshed file whenever a
# change moves performance on purpose; the CI perf job gates against it.
bench-json:
	$(GO) build -o bin/benchdiff ./cmd/benchdiff
	GPURESIL_BENCH_SCALE=0.05 $(GO) test -run '^$$' -bench '$(BENCH_SET)' -benchmem -count=4 -timeout 30m . | tee bench-out.txt
	bin/benchdiff fmt -o BENCH_baseline.json bench-out.txt

# Gate the current tree against the committed baseline. Same-machine runs
# can hold a tighter time ratio than CI's cross-machine 1.6x.
bench-gate:
	$(GO) build -o bin/benchdiff ./cmd/benchdiff
	GPURESIL_BENCH_SCALE=0.05 $(GO) test -run '^$$' -bench '$(BENCH_SET)' -benchmem -count=4 -timeout 30m . | bin/benchdiff fmt -o bench-new.json
	bin/benchdiff compare -base BENCH_baseline.json -new bench-new.json -max-time-ratio 1.25 -max-alloc-ratio 1.05

# Full-scale snapshot (scale 1.0, the paper's fleet): BenchmarkClusterRun
# and BenchmarkEndToEnd, one iteration three times, per-metric medians
# written to BENCH_<UTC date>.json. Not part of the perf gate: one
# EndToEnd iteration takes seconds and about 1 GB.
BENCH_FULL_SET = ^(BenchmarkClusterRun|BenchmarkEndToEnd)$$

bench-full:
	$(GO) build -o bin/benchdiff ./cmd/benchdiff
	GPURESIL_BENCH_SCALE=1.0 $(GO) test -run '^$$' -bench '$(BENCH_FULL_SET)' -benchmem -benchtime 1x -count 3 -timeout 30m . | bin/benchdiff fmt -o BENCH_$$(date -u +%F).json

# The full reproduction with paper comparison and extensions (~30 s).
report:
	$(GO) run ./cmd/deltareport -scale 1.0 -seed 2 -compare -ext

ablate:
	$(GO) run ./cmd/ablate -scale 0.1

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/faultygpu
	$(GO) run ./examples/nvlink
	$(GO) run ./examples/jobimpact
	$(GO) run ./examples/availability
	$(GO) run ./examples/checkpoint
	$(GO) run ./examples/survival
	$(GO) run ./examples/hopper
	$(GO) run ./examples/streaming

# Build the streaming daemon and run the service test suite: streaming/batch
# equivalence, watermark edge cases, checkpoint resume, tailer rotation, and
# the HTTP smoke tests (200 + ETag 304), then the same suite under the race
# detector (the repo-wide race job runs -short, which skips the resume
# tests). Mirrors the CI service job.
service-check:
	$(GO) build -o bin/gpuresilienced ./cmd/gpuresilienced
	$(GO) test ./internal/stream/ ./cmd/gpuresilienced/
	$(GO) test -race -count=1 ./internal/stream/ ./cmd/gpuresilienced/

# Run two seeded library campaigns through the stress harness — one
# batch-only, one replaying the log through the streaming engine under
# kill/restart chaos — each twice, byte-comparing the JSON reports to prove
# seeded reproducibility. Exit status is the campaigns' own assertions.
# Mirrors the CI stress job; docs/scenarios.md has the format.
stress-check:
	$(GO) build -o bin/stress ./cmd/stress
	bin/stress -scenario scenarios/faulty-gpu-burst.json -quiet -json stress-a1.json
	bin/stress -scenario scenarios/faulty-gpu-burst.json -quiet -json stress-a2.json
	cmp stress-a1.json stress-a2.json
	bin/stress -scenario scenarios/gsp-storm.json -quiet -json stress-b1.json
	bin/stress -scenario scenarios/gsp-storm.json -quiet -json stress-b2.json
	cmp stress-b1.json stress-b2.json
	rm -f stress-a1.json stress-a2.json stress-b1.json stress-b2.json

# Sharded-ingestion gate: the differential battery in internal/ingest
# (split-log vs single-stream equivalence, per-node splits, concatenation
# property trials, evshard round-trip, cache invalidation) plus an
# end-to-end determinism check — deltasim writes a dataset, its syslog is
# split into 8 parts and, separately, into one file per node (time-ordered
# files that interleave in time), and xidstat runs single-file,
# sharded-cold at 2 workers (so each worker parses several shards into the
# storage the one before left it), and sharded-warm; all reports must be
# byte-identical and the warm run must hit the cache without re-running
# Stage I. Mirrors the CI ingest job; docs/ingest.md has the contracts.
ingest-check:
	$(GO) test -count=1 ./internal/ingest/ ./internal/cliflags/
	$(GO) build -o bin/xidstat ./cmd/xidstat
	$(GO) build -o bin/deltasim ./cmd/deltasim
	rm -rf ingest-tmp && mkdir -p ingest-tmp/cache
	bin/deltasim -out ingest-tmp -seed 7 -scale 0.02 -nojobs
	split -n l/8 -d -a 3 --additional-suffix=.log ingest-tmp/syslog.txt ingest-tmp/part_
	test $$(ls ingest-tmp/part_*.log | wc -l) -eq 8
	bin/xidstat -logs ingest-tmp/syslog.txt > ingest-tmp/single.txt
	bin/xidstat -logs 'ingest-tmp/part_*.log' -cache-dir ingest-tmp/cache -workers 2 > ingest-tmp/cold.txt
	bin/xidstat -logs 'ingest-tmp/part_*.log' -cache-dir ingest-tmp/cache > ingest-tmp/warm.txt
	cmp ingest-tmp/single.txt ingest-tmp/cold.txt
	cmp ingest-tmp/cold.txt ingest-tmp/warm.txt
	mkdir -p ingest-tmp/nodes
	awk -v dir=ingest-tmp/nodes '{print > (dir "/" $$2 ".log")}' ingest-tmp/syslog.txt
	bin/xidstat -logs 'ingest-tmp/nodes/*.log' -cache-dir ingest-tmp/cache > ingest-tmp/nodes-cold.txt
	bin/xidstat -logs 'ingest-tmp/nodes/*.log' -cache-dir ingest-tmp/cache > ingest-tmp/nodes-warm.txt
	cmp ingest-tmp/single.txt ingest-tmp/nodes-cold.txt
	cmp ingest-tmp/single.txt ingest-tmp/nodes-warm.txt
	bin/xidstat -logs 'ingest-tmp/part_*.log' -cache-dir ingest-tmp/cache -metrics > ingest-tmp/warm-metrics.txt
	grep -q 'cache.hit' ingest-tmp/warm-metrics.txt
	! grep -q 'stage1.extract' ingest-tmp/warm-metrics.txt
	rm -rf ingest-tmp

fmt:
	gofmt -w ./internal ./cmd ./examples ./bench_test.go ./doc.go

vet:
	$(GO) vet ./...

# Run the repo's custom analyzers (internal/lint) over every package.
# Fails on any finding not in lint_baseline.json; see
# docs/static-analysis.md for the analyzer list and //lint:allow escapes.
lint:
	$(GO) run ./cmd/gpulint ./...

# Regenerate the suppression baseline from current findings. Keep it empty:
# fix or //lint:allow new findings instead of baselining them, and reserve
# this for bootstrapping a newly added analyzer.
lint-baseline:
	$(GO) run ./cmd/gpulint -write-baseline ./...

# Net non-test Go line count (the benchmark harness excluded), the size
# figure the simplification work is tracked by.
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^cmd/gpubench/' | grep -v '/testdata/' | xargs cat | wc -l

clean:
	$(GO) clean -testcache
