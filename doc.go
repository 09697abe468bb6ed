// Package gpuresilience reproduces the DSN 2025 study "Characterizing Modern
// GPU Resilience and Impact in HPC Systems: A Case Study of A100 GPUs".
//
// The repository contains two halves:
//
//   - A discrete-event simulator of NCSA Delta's A100 partition — GPU
//     component fault models (HBM ECC with row remapping and error
//     containment, NVLink with CRC detection and replay, GSP, PMU, MMU,
//     PCIe bus), node drain/reboot lifecycle, a Slurm-like scheduler, a
//     calibrated workload generator, and a syslog emitter that produces the
//     duplicated NVRM Xid log lines the paper's pipeline ingests.
//
//   - The paper's contribution: the characterization pipeline — regex XID
//     extraction (Stage I), Δt-window error coalescing (Stage II), and
//     resilience/impact characterization (Stage III): MTBE statistics
//     (Table I), job-impact correlation over a 20-second attribution window
//     (Table II), workload statistics (Table III), and availability analysis
//     (Figure 2).
//
// Every pipeline stage can run sharded across worker goroutines
// (PipelineConfig.Workers, CLI flag -workers) with byte-identical output at
// any worker count; internal/parallel holds the pooling primitives and
// docs/pipeline.md the determinism argument.
//
// Stage I also ingests many files at once: internal/ingest expands the
// batch CLIs' repeatable -logs flag (paths, globs, directories) into a
// deterministic shard plan, parses the shards concurrently, and
// concatenates their events in plan order, which is exactly Stage I over
// the concatenated files. A columnar .evshard cache (-cache-dir) persists
// each shard's parsed events keyed by source digest and parser
// configuration, so warm re-analyses skip Stage I entirely; docs/ingest.md
// has the concatenation rule, the cache format, and the differential test
// battery that enforces both.
//
// Stage I runs strict by default (the first malformed read fails the run);
// PipelineConfig.Lenient (CLI flag -lenient) switches it to
// corruption-tolerant extraction with a typed damage taxonomy, bounded
// quarantine, error budgets, and a structured ingestion report —
// docs/robustness.md has the taxonomy and the recovery guarantee, and
// internal/logfuzz the deterministic fault injector that enforces it.
//
// The pipeline and simulator are instrumented through internal/obs — a
// nil-safe, zero-cost-when-off observability layer: per-stage spans, a
// race-safe metrics registry, run manifests for byte-for-byte
// reproducibility (enforced by the tier-2 baseline in internal/obs/regress),
// and opt-in pprof. Every CLI exposes it via -metrics / -metrics-json /
// -pprof (flags unified in internal/cliflags); docs/observability.md has
// the naming scheme and the manifest schema.
//
// The pipeline also runs continuously: internal/stream wraps Stage I/II in a
// watermark-based streaming engine (out-of-order tolerance inside a horizon,
// late-event quarantine, bounded resident state, replayable checkpoints) and
// cmd/gpuresilienced packages it as a daemon that tails live system logs and
// serves Tables I-III and the availability analysis over HTTP with ETag
// caching — byte-identical to the batch CLIs' output at any ingest chunking;
// docs/service.md has the API and the equivalence argument.
//
// All of the above is exercised adversarially by internal/scenario and
// cmd/stress: declarative JSON fault campaigns that compile onto the
// simulator (timed XID bursts, zone cascades, chronic-node skew, collector
// outages, log corruption), run through the batch pipeline and — under
// kill/restart, redelivery, and rotation chaos — the streaming engine, and
// gate on declarative assertions with byte-reproducible reports. The
// committed campaign library lives in scenarios/; docs/scenarios.md has the
// format and the chaos semantics.
//
// Entry points live under internal/core (pipeline orchestration) and
// internal/calib (the paper-calibrated configuration); runnable tools are in
// cmd/ and runnable examples in examples/. Root-level bench_test.go holds one
// benchmark per paper table and figure; the hot paths behind those numbers
// are hand-rolled byte parsers held to their historical regex/strings
// implementations by differential fuzzing, with a committed benchmark
// baseline (BENCH_baseline.json) gated in CI — docs/performance.md has the
// design and the workflow. The invariants behind those guarantees are also
// machine-checked at the source level by cmd/gpulint, a dependency-free
// static-analysis pass built on go/types (internal/lint); see
// docs/static-analysis.md. The docs/ tree documents the
// repository layout (docs/architecture.md), the
// pipeline (docs/pipeline.md), the dataset file formats
// (docs/file-formats.md), sharded multi-file ingestion and the event
// cache (docs/ingest.md), the CLI tools (docs/cli.md), the streaming
// service (docs/service.md), corruption-tolerant ingestion
// (docs/robustness.md), the observability layer (docs/observability.md),
// the performance engineering (docs/performance.md), the custom
// static analysis (docs/static-analysis.md), and the fault-campaign
// scenario format (docs/scenarios.md).
package gpuresilience
