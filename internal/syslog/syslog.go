// Package syslog emits and parses the NVRM Xid kernel log lines that are the
// raw input of the study's pipeline (Fig. 1, Stage I).
//
// Emission is deliberately messy in the way the field data is messy: one
// logical error produces several near-duplicate log lines milliseconds apart
// (the reason Stage II error coalescing exists), and error lines are
// interleaved with unrelated kernel noise that the regex filter must skip.
//
// Parsing is the pipeline's Stage I: regex extraction of (timestamp, node,
// PCI address -> GPU index, XID code) records from consolidated logs.
package syslog

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"gpuresilience/internal/randx"
	"gpuresilience/internal/xid"
)

// pciBases maps GPU index to the device part of its PCI bus address,
// matching the 4-way (and 8-way) A100 board layout.
var pciBases = []int{0x07, 0x27, 0x47, 0x67, 0x87, 0xA7, 0xC7, 0xE7}

// hexUpper digits match fmt's %02X rendering.
const hexUpper = "0123456789ABCDEF"

// AppendPCIAddr appends the PCI bus address of GPU index i to dst without
// allocating, rendering exactly what PCIAddr returns.
func AppendPCIAddr(dst []byte, i int) []byte {
	v, domain := 0, "0000:"
	if i >= 0 && i < len(pciBases) {
		v = pciBases[i]
	} else {
		// Synthetic fallback for out-of-range indices.
		v, domain = i&0xff, "0001:"
	}
	dst = append(dst, domain...)
	dst = append(dst, hexUpper[v>>4], hexUpper[v&0xf])
	return append(dst, ":00"...)
}

// PCIAddr returns the PCI bus address string of GPU index i.
func PCIAddr(i int) string {
	var buf [10]byte
	return string(AppendPCIAddr(buf[:0], i))
}

// GPUIndex inverts PCIAddr. The boolean is false for unknown addresses:
// real slots must match the board layout's uppercase "0000:XX:00" form
// exactly, synthetic addresses the "0001:hh:00" shape (either hex case).
// Anything looser (short widths, trailing garbage) is a corrupt address,
// not data.
func GPUIndex(addr string) (int, bool) {
	return gpuIndexSeq(addr)
}

// timeLayout is the consolidated-log timestamp format (microsecond UTC).
const timeLayout = "2006-01-02T15:04:05.000000Z"

// AppendLine appends one raw Xid log line to dst, allocation-free when dst
// has capacity — the Writer's per-line emission path. pid and procName are
// cosmetic; the extractor ignores them, like the study's regex does. Both
// newlines and lone carriage returns are replaced with spaces in the detail:
// a bare \r survives fmt unscathed but splits the record under CR-aware
// line readers.
func AppendLine(dst []byte, ev xid.Event, pid int, procName string) []byte {
	return appendLineAt(dst, ev.Time.Time(), ev, pid, procName)
}

// appendLineAt is AppendLine with the line stamped at instead of ev.Time.
func appendLineAt(dst []byte, at time.Time, ev xid.Event, pid int, procName string) []byte {
	dst = at.UTC().AppendFormat(dst, timeLayout)
	dst = append(dst, ' ')
	dst = append(dst, ev.Node...)
	dst = append(dst, " kernel: NVRM: Xid (PCI:"...)
	dst = AppendPCIAddr(dst, int(ev.GPU))
	dst = append(dst, "): "...)
	dst = strconv.AppendInt(dst, int64(ev.Code), 10)
	dst = append(dst, ", pid="...)
	dst = strconv.AppendInt(dst, int64(pid), 10)
	dst = append(dst, ", name="...)
	dst = append(dst, procName...)
	dst = append(dst, ", "...)
	for i := 0; i < len(ev.Detail); i++ {
		c := ev.Detail[i]
		if c == '\n' || c == '\r' {
			c = ' '
		}
		dst = append(dst, c)
	}
	return dst
}

// noiseMsgs are the unrelated kernel messages AppendNoise cycles through.
var noiseMsgs = []string{
	"kernel: EXT4-fs (nvme0n1p2): mounted filesystem with ordered data mode",
	"kernel: perf: interrupt took too long, lowering kernel.perf_event_max_sample_rate",
	"kernel: slurmstepd[4121]: task exited normally",
	"kernel: nvidia-persistenced: persistence mode enabled",
	"kernel: mlx5_core 0000:a1:00.0: Port module event: module 0, Cable plugged",
}

// AppendNoise appends an unrelated kernel log line — one the extractor must
// skip — to dst.
func AppendNoise(dst []byte, t time.Time, node string, i int) []byte {
	dst = t.UTC().AppendFormat(dst, timeLayout)
	dst = append(dst, ' ')
	dst = append(dst, node...)
	dst = append(dst, ' ')
	return append(dst, noiseMsgs[i%len(noiseMsgs)]...)
}

// WriterConfig controls raw-line emission.
type WriterConfig struct {
	// DupMean is the mean number of log lines one error produces for a
	// given code (>= 1). Codes not present use DefaultDupMean.
	DupMean map[xid.Code]float64
	// DefaultDupMean applies to codes absent from DupMean.
	DefaultDupMean float64
	// DupSpacing is the mean spacing between duplicate lines (well inside
	// the coalescing window).
	DupSpacing time.Duration
	// NoiseProb injects one unrelated kernel line before an error line with
	// this probability.
	NoiseProb float64
}

// DefaultWriterConfig matches the field data: a few duplicates for most
// codes, a much higher factor for the persistent uncontained bursts (38,900
// coalesced errors -> >1M raw lines, a factor of ~26).
func DefaultWriterConfig() WriterConfig {
	return WriterConfig{
		DupMean: map[xid.Code]float64{
			xid.UncontainedMem: 26,
			xid.MMU:            4,
			xid.GSPRPCTimeout:  3,
			xid.GSPError:       3,
		},
		DefaultDupMean: 2,
		DupSpacing:     40 * time.Millisecond,
		NoiseProb:      0.15,
	}
}

// Writer streams raw log lines for a sequence of events.
type Writer struct {
	bw      *bufio.Writer
	cfg     WriterConfig
	rng     *randx.Stream
	lines   int
	noise   int
	scratch []byte // reused line buffer; emission allocates nothing per line
}

// writerBuffer is the Writer's output buffer. It batches line writes into
// calls on w; core.EndToEnd's w is a pipe into Stage I, which reads in its
// own chunks, so a larger buffer only adds allocation.
const writerBuffer = 64 << 10

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer, cfg WriterConfig, seed uint64) (*Writer, error) {
	if cfg.DefaultDupMean < 1 {
		return nil, fmt.Errorf("syslog: default dup mean %v < 1", cfg.DefaultDupMean)
	}
	for c, m := range cfg.DupMean {
		if m < 1 {
			return nil, fmt.Errorf("syslog: dup mean %v < 1 for %v", m, c)
		}
	}
	if cfg.DupSpacing <= 0 {
		return nil, fmt.Errorf("syslog: non-positive dup spacing")
	}
	if cfg.NoiseProb < 0 || cfg.NoiseProb > 1 {
		return nil, fmt.Errorf("syslog: noise probability out of [0,1]")
	}
	return &Writer{
		bw:  bufio.NewWriterSize(w, writerBuffer),
		cfg: cfg,
		rng: randx.Derive(seed, "syslog"),
	}, nil
}

// WriteEvent emits the raw line(s) for one error event and returns how many
// lines it wrote.
func (w *Writer) WriteEvent(ev xid.Event) (int, error) {
	wrote := 0
	if w.rng.Bool(w.cfg.NoiseProb) {
		w.scratch = AppendNoise(w.scratch[:0], ev.Time.Time(), ev.Node, w.noise)
		w.scratch = append(w.scratch, '\n')
		if _, err := w.bw.Write(w.scratch); err != nil {
			return wrote, err
		}
		w.noise++
		w.lines++
	}
	mean, ok := w.cfg.DupMean[ev.Code]
	if !ok {
		mean = w.cfg.DefaultDupMean
	}
	dups := w.rng.Geometric(mean)
	pid := 1000 + w.rng.Intn(60000)
	proc := "python"
	// The duplicates are stamped in time.Time, which has no range limit
	// for them to overflow; a stamp past xid.MaxTime reads back malformed.
	at := ev.Time.Time()
	for i := 0; i < dups; i++ {
		w.scratch = appendLineAt(w.scratch[:0], at, ev, pid, proc)
		w.scratch = append(w.scratch, '\n')
		if _, err := w.bw.Write(w.scratch); err != nil {
			return wrote, err
		}
		wrote++
		w.lines++
		at = at.Add(time.Duration(w.rng.Exponential(1/w.cfg.DupSpacing.Seconds()) * float64(time.Second)))
	}
	return wrote, nil
}

// Lines returns the total number of lines written (noise included).
func (w *Writer) Lines() int { return w.lines }

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Scanner sizing for the raw-log readers. A consolidated syslog line is a
// few hundred bytes; MaxLineBytes is the hard ceiling past which a line is
// treated as log corruption rather than data, so a pathological unterminated
// line fails loudly (with its line number) instead of stalling the scan.
const (
	// scanBufBytes is the line-at-a-time scan's read buffer: lines up to
	// this long are parsed in place.
	scanBufBytes = 64 << 10
	// MaxLineBytes is the longest raw log line Extract accepts (4 MiB).
	MaxLineBytes = 4 << 20
)

// ExtractStats reports what the extractor saw.
type ExtractStats struct {
	Lines     int // total lines scanned
	XIDLines  int // lines matching the Xid pattern
	Malformed int // corrupt lines: a bad Xid field or overlong; lenient mode adds non-UTF-8
	Skipped   int // non-Xid lines (noise)
}

// maxXIDCode bounds the accepted XID code. The driver's code table tops out
// in the low hundreds; a larger number in an otherwise well-shaped line is a
// corrupted digit string, not a new error class.
const maxXIDCode = 1023

// ParseLine parses one raw line. ok is false for non-Xid lines; err is
// non-nil for lines that match the Xid shape but have unparseable fields —
// always a *ParseError carrying the corruption category (see LineClass).
//
// The matcher is the hand-rolled byte parser of parse_bytes.go; the
// historical regex it replaced survives as the differential-test oracle in
// parse_oracle_test.go. A well-formed line parses without allocating: the
// event's strings are substrings of line.
func ParseLine(line string) (ev xid.Event, ok bool, err error) {
	if strings.IndexByte(line, '\n') >= 0 {
		// The anchored pattern can never match across a newline.
		return xid.Event{}, false, nil
	}
	return parseLine(line, nil)
}
