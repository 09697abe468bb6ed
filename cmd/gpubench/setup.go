package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"gpuresilience/internal/calib"
	"gpuresilience/internal/cluster"
	"gpuresilience/internal/core"
	"gpuresilience/internal/report"
	"gpuresilience/internal/slurmsim"
	"gpuresilience/internal/syslog"
	"gpuresilience/internal/workload"
	"gpuresilience/internal/xid"
)

// shardCount is how many files the raw log is split into, as a site's
// per-node or rotated syslog files would be.
const shardCount = 8

// inputs are the files a run generates from its seed, and the small values
// every workload reads from them.
type inputs struct {
	logsDir   string // the raw log, split into shardCount files in plan order
	jobsPath  string // sacct-style job database dump
	coldCache string // event-shard cache logs-cold empties before each iteration
	warmCache string // event-shard cache logs-warm reads, filled in set-up
	downtimes []cluster.NodeDowntime
	repairs   []time.Duration
	cpu       workload.CPURecord
	// logLen and jobsSum fingerprint the generated inputs, so the parts of
	// a run and the traced emit step can be checked against each other.
	// The log is compared by length only: the simulator picks the node of
	// a multi-node job's software Xid by map iteration order (the
	// OnTerminal hook in cluster.New), so those lines' node and PCI address
	// vary between runs of one seed. No table counts them.
	logLen  int
	jobsSum [sha256.Size]byte
}

// fingerprint is logLen and jobsSum as one string.
func (in *inputs) fingerprint() string {
	return fmt.Sprintf("%d %x", in.logLen, in.jobsSum)
}

// generate simulates the fleet for seed, emits its raw syslog and sacct
// dump, and writes them under dir, replacing whatever was there.
func generate(dir string, seed uint64, scale float64) (*inputs, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	in := &inputs{
		logsDir:   filepath.Join(dir, "logs"),
		jobsPath:  filepath.Join(dir, "jobs.db"),
		coldCache: filepath.Join(dir, "cache-cold"),
		warmCache: filepath.Join(dir, "cache-warm"),
	}
	if err := os.MkdirAll(in.logsDir, 0o755); err != nil {
		return nil, err
	}
	sim, err := cluster.New(calib.NewScenario(seed, scale).Cluster)
	if err != nil {
		return nil, err
	}
	var log bytes.Buffer
	w, err := syslog.NewWriter(&log, syslog.DefaultWriterConfig(), seed)
	if err != nil {
		return nil, err
	}
	sim.SetEventSink(func(ev xid.Event) error {
		_, err := w.WriteEvent(ev)
		return err
	})
	truth, err := sim.Run()
	if err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	var jobs, down bytes.Buffer
	if err := slurmsim.DumpDB(&jobs, truth.Jobs); err != nil {
		return nil, err
	}
	if err := cluster.WriteDowntimes(&down, truth.Downtimes); err != nil {
		return nil, err
	}
	if err := os.WriteFile(in.jobsPath, jobs.Bytes(), 0o644); err != nil {
		return nil, err
	}
	// The downtimes go through their file format too, so every consumer
	// sees exactly what a site's repair log would give it.
	if in.downtimes, err = cluster.ReadDowntimes(&down); err != nil {
		return nil, err
	}
	for i, part := range splitLines(log.Bytes(), shardCount) {
		name := filepath.Join(in.logsDir, fmt.Sprintf("shard_%02d.log", i))
		if err := os.WriteFile(name, part, 0o644); err != nil {
			return nil, err
		}
	}
	in.repairs = cluster.Durations(in.downtimes)
	in.cpu = truth.CPU
	in.logLen = log.Len()
	in.jobsSum = sha256.Sum256(jobs.Bytes())
	return in, nil
}

// splitLines cuts data into n parts of about the same number of whole lines.
func splitLines(data []byte, n int) [][]byte {
	per := (bytes.Count(data, []byte{'\n'}) + n - 1) / n
	parts := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		cut := 0
		for k := 0; k < per && cut < len(data); k++ {
			j := bytes.IndexByte(data[cut:], '\n')
			if j < 0 {
				cut = len(data)
				break
			}
			cut += j + 1
		}
		parts = append(parts, data[:cut])
		data = data[cut:]
	}
	return parts
}

// shardPaths lists the log shards in plan order.
func (in *inputs) shardPaths() []string {
	paths := make([]string, shardCount)
	for i := range paths {
		paths[i] = filepath.Join(in.logsDir, fmt.Sprintf("shard_%02d.log", i))
	}
	return paths
}

// reference holds the renders every workload's output is checked against.
type reference struct {
	all       []byte // report.WriteAll: Tables I-III and Figure 2
	tableI    []byte // report.WriteTableI
	jobImpact []byte // Tables II and III as the daemon's jobimpact text
}

// computeReference renders the tables from a single-stream core.AnalyzeLogs
// over the concatenated log shards and the job database file — the path
// every other front end is specified to agree with byte for byte.
func computeReference(in *inputs, cfg core.PipelineConfig) (reference, error) {
	var ref reference
	var logs []io.Reader
	for _, p := range in.shardPaths() {
		f, err := os.Open(p)
		if err != nil {
			return ref, err
		}
		defer f.Close()
		logs = append(logs, f)
	}
	jobs, err := os.Open(in.jobsPath)
	if err != nil {
		return ref, err
	}
	defer jobs.Close()
	res, err := core.AnalyzeLogs(io.MultiReader(logs...), jobs, in.repairs, in.cpu, cfg)
	if err != nil {
		return ref, fmt.Errorf("reference: %w", err)
	}
	var all, t1 bytes.Buffer
	if err := report.WriteAll(&all, res); err != nil {
		return ref, err
	}
	if err := report.WriteTableI(&t1, res); err != nil {
		return ref, err
	}
	ji, err := renderJobImpact(res)
	if err != nil {
		return ref, err
	}
	return reference{all: all.Bytes(), tableI: t1.Bytes(), jobImpact: ji}, nil
}

// renderJobImpact renders Tables II and III the way the daemon's jobimpact
// text document does.
func renderJobImpact(res *core.Results) ([]byte, error) {
	var b bytes.Buffer
	if err := report.WriteTableII(&b, res); err != nil {
		return nil, err
	}
	b.WriteByte('\n')
	if err := report.WriteTableIII(&b, res); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// tableISection is how Table I appears inside report.WriteAll's output.
func tableISection(tableI []byte) []byte {
	s := []byte("=== Table I: GPU resilience statistics ===\n\n")
	s = append(s, tableI...)
	return append(s, "\n=== "...)
}
