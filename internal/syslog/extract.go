package syslog

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"time"

	"gpuresilience/internal/intern"
	"gpuresilience/internal/parallel"
	"gpuresilience/internal/xid"
)

// defaultChunkBytes is the read size of the chunked path. A chunk always
// ends on a line boundary, so a worker never sees a torn line.
const defaultChunkBytes = 1 << 20

// nl is the line separator, hoisted for the bytes.Count calls.
var nl = []byte{'\n'}

// kernelLit is the Xid literal every record line contains, hoisted for
// parseChunk's bytes.Count.
var kernelLit = []byte(litKernel)

// blockLen is how many events each of the one-worker scan's batches holds.
const blockLen = 2048

// Options configures one Stage I run.
type Options struct {
	// Workers bounds the chunked path's parallelism: 0 means GOMAXPROCS,
	// and 1 runs the line-at-a-time scan.
	Workers int
	// Lenient switches to corruption-tolerant extraction under these
	// budgets; nil is strict mode.
	Lenient *LenientOptions
	// Meter, when non-nil, observes each parse's duration against the
	// worker that ran it (an obs.Span's ObserveWorker plugs in directly).
	// Output is unaffected; nil runs the exact unmetered path.
	Meter parallel.WorkerMeter
	// Alloc, when non-nil, accumulates the run's interner hit/miss/byte
	// totals. They are deterministic at a fixed worker count: chunk
	// boundaries depend only on the input bytes, and each chunk is interned
	// in isolation.
	Alloc *intern.Stats
}

// Extract is the pipeline's Stage I: it streams raw log lines from r,
// parses the Xid records, and calls fn for each in stream order.
//
// Strict mode (opt.Lenient nil) and lenient mode share every step and
// differ in three places only:
//   - a line longer than the ceiling is a fatal "line N longer than" error
//     in strict mode and a quarantined ClassOverlong line in lenient mode;
//   - a non-Xid line that is not valid UTF-8 counts as Skipped in strict
//     mode and as ClassNonUTF8 corruption in lenient mode;
//   - lenient mode enforces the error budgets.
//
// With one worker the scan is line at a time. Otherwise the log is cut on
// line boundaries into ~1 MiB chunks that workers parse concurrently, and an
// ordered fan-in re-serializes them, so fn observes the same events — and a
// nil-error run ends with the same stats and report — at any worker count.
// After fn fails or a budget trips, the counts reflect the abort point,
// which depends on the chunking.
//
// Both modes keep the same report; the stats are its projection (see
// IngestionReport.stats). The report is returned in lenient mode only,
// non-nil even alongside an error.
func Extract(r io.Reader, opt Options, fn func(xid.Event) error) (ExtractStats, *IngestionReport, error) {
	return extract(r, opt, fn, nil, nil)
}

// ExtractBatches is Extract that hands the events over in batches the
// caller keeps, in stream order: their concatenation is the stream Extract
// delivers. The chunked path hands over each chunk's slice as its parse
// filled it. The one-worker scan fills blocks of 2,048 events, each
// allocated at full capacity, and hands each over once it is full or the
// stream ends, so an error fn returns stops that scan only at a block
// boundary. No batch is empty.
func ExtractBatches(r io.Reader, opt Options, fn func([]xid.Event) error) (ExtractStats, *IngestionReport, error) {
	return extract(r, opt, nil, fn, nil)
}

// Reuse is the one-worker scan's storage, carried from one ExtractBatches
// run to the next by a caller that parses sources in turn on one
// goroutine: the reader that buffers the input, and the blocks of earlier
// runs handed back with Recycle. The zero value is ready to use.
type Reuse struct {
	reader *bufio.Reader
	blocks [][]xid.Event
}

// ExtractBatches is the package's ExtractBatches with u's storage: the
// one-worker scan reads through u's reader, reset onto r, and fills the
// recycled blocks, each up to its capacity, before it allocates new ones.
// The chunked path does not use u.
func (u *Reuse) ExtractBatches(r io.Reader, opt Options, fn func([]xid.Event) error) (ExtractStats, *IngestionReport, error) {
	return extract(r, opt, nil, fn, u)
}

// Recycle hands batches a run delivered back for a later run to
// overwrite; the caller reads them no more.
func (u *Reuse) Recycle(batches [][]xid.Event) {
	u.blocks = append(u.blocks, batches...)
}

// readerFor returns a buffered reader over r: u's own, reset onto r, or a
// new one when u is nil.
func (u *Reuse) readerFor(r io.Reader) *bufio.Reader {
	if u == nil {
		return bufio.NewReaderSize(r, scanBufBytes)
	}
	if u.reader == nil {
		u.reader = bufio.NewReaderSize(r, scanBufBytes)
	} else {
		u.reader.Reset(r)
	}
	return u.reader
}

// block returns an empty block to fill: a recycled one, or a new one of
// blockLen events when u is nil or holds none.
func (u *Reuse) block() []xid.Event {
	if u == nil || len(u.blocks) == 0 {
		return make([]xid.Event, 0, blockLen)
	}
	last := len(u.blocks) - 1
	b := u.blocks[last][:0]
	u.blocks[last] = nil
	u.blocks = u.blocks[:last]
	return b
}

// extract is Extract with one of its two consumers set: each gets every
// event, batch gets them a batch at a time. u is the one-worker scan's
// storage, nil for its own.
func extract(r io.Reader, opt Options, each func(xid.Event) error, batch func([]xid.Event) error, u *Reuse) (ExtractStats, *IngestionReport, error) {
	s := newReportState(opt.Lenient)
	var err error
	switch {
	case parallel.Resolve(opt.Workers) > 1:
		err = extractChunked(r, s, opt, each, batch)
	case batch != nil:
		err = scanBlocks(u.readerFor(r), s, opt, u, batch)
	default:
		err = meteredScan(u.readerFor(r), s, opt, each)
	}
	if err == nil {
		err = s.checkBudgets(true)
	}
	if !s.lenient {
		return s.rep.stats(true), nil, err
	}
	return s.rep.stats(false), &s.rep, err
}

// meteredScan is scan, timed against worker 0 when opt.Meter is set.
func meteredScan(br *bufio.Reader, s *reportState, opt Options, fn func(xid.Event) error) error {
	if opt.Meter == nil {
		return scan(br, s, opt.Alloc, fn)
	}
	start := time.Now() //lint:allow determinism stage span metering measures real elapsed time
	err := scan(br, s, opt.Alloc, fn)
	opt.Meter(0, time.Since(start)) //lint:allow determinism stage span metering measures real elapsed time
	return err
}

// scanBlocks is the one-worker scan for a batch consumer: events gather
// in blocks that are each filled to their capacity, recycled ones from u
// first and then new ones of blockLen, so no block regrows. A run that
// stops early still hands over the block it was filling.
func scanBlocks(br *bufio.Reader, s *reportState, opt Options, u *Reuse, batch func([]xid.Event) error) error {
	var blk []xid.Event
	err := meteredScan(br, s, opt, func(ev xid.Event) error {
		if len(blk) == cap(blk) {
			full := blk
			blk = u.block()
			if len(full) > 0 {
				if err := batch(full); err != nil {
					return err
				}
			}
		}
		blk = append(blk, ev)
		return nil
	})
	if len(blk) > 0 {
		if berr := batch(blk); err == nil {
			err = berr
		}
	}
	return err
}

// ExtractParallel is strict Extract at a worker count.
func ExtractParallel(r io.Reader, workers int, fn func(xid.Event) error) (ExtractStats, error) {
	st, _, err := Extract(r, Options{Workers: workers}, fn)
	return st, err
}

// readError attaches line context to a raw-log read failure; scanned
// complete lines precede the failure.
func readError(err error, scanned int) error {
	return fmt.Errorf("syslog: read failed at line %d: %w", scanned+1, err)
}

// tooLong is strict mode's verdict on an overlong line.
func tooLong(line int) error {
	return fmt.Errorf("syslog: line %d longer than %d bytes (corrupt log?)", line, MaxLineBytes)
}

// scan is the line-at-a-time Stage I over br: the one-worker path, and
// the reference the chunked path is fuzzed against. A line that fits the
// reader's buffer is parsed in place, and one whole-stream interner makes
// repeated node names and details cost a single allocation each.
func scan(br *bufio.Reader, s *reportState, alloc *intern.Stats, fn func(xid.Event) error) error {
	in := getInterner()
	defer releaseInterner(in, alloc)
	var (
		long []byte // assembles lines longer than br's buffer; reused
		ev   xid.Event
	)
	for {
		line, err := readLine(br, &long, s.opt.MaxLineBytes)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return readError(err, s.rep.Lines)
		}
		if !s.lenient && len(line) > s.opt.MaxLineBytes {
			return tooLong(s.rep.Lines + 1)
		}
		switch s.line(line, in, &ev) {
		case lineRecord:
			s.rep.Records++
			if err := fn(ev); err != nil {
				return err
			}
		case lineBad:
			if err := s.checkBudgets(false); err != nil {
				return err
			}
		}
	}
}

// readLine returns the next physical line, newline stripped, or io.EOF once
// the stream is exhausted. A line that fits br's buffer comes back as
// ReadSlice's own slice, uncopied; a longer one is assembled in *long, and
// past max bytes only its head is kept while the rest is read and dropped —
// the caller sees a line longer than max and classifies it as overlong.
func readLine(br *bufio.Reader, long *[]byte, max int) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		*long = append((*long)[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = br.ReadSlice('\n')
			if len(*long) <= max {
				*long = append(*long, line...)
			}
		}
		line = *long
	}
	if err != nil && (err != io.EOF || len(line) == 0) {
		return nil, err
	}
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	return line, nil
}

// chunk is one unit of work for the chunked path: a line-aligned byte range
// in a pooled buffer, preceded by the samples of any overlong lines the
// reader dropped just before it. The worker returns owner to the pool as
// soon as the chunk is parsed — every string a parse produces is an
// interned copy, never a view into the buffer.
type chunk struct {
	pre   [][]byte
	data  []byte
	owner *[]byte
}

// chunkResult is one worker's output: the chunk's events in line order, its
// share of the accounting (quarantine line numbers chunk-local, Records
// left to the fan-in, which counts events as it delivers them), and its
// interner totals.
type chunkResult struct {
	events []xid.Event
	part   IngestionReport
	alloc  intern.Stats
}

// parseChunk runs scan's per-line accounting over one chunk, on a fresh
// chunk-local state.
func parseChunk(c chunk, cs reportState, in *intern.Interner) chunkResult {
	var out chunkResult
	for _, sample := range c.pre {
		cs.rep.Lines++
		cs.record(ClassOverlong, sample)
	}
	var ev xid.Event
	data := c.data
	// Every record line contains the Xid literal, so counting it sizes the
	// slice for the chunk's records without room for its noise lines: the
	// slice is Stage I's output and outlives the chunk.
	if n := bytes.Count(data, kernelLit); n > 0 {
		out.events = make([]xid.Event, 0, n)
	}
	for len(data) > 0 {
		var line []byte
		if idx := bytes.IndexByte(data, '\n'); idx >= 0 {
			line, data = data[:idx], data[idx+1:]
		} else {
			line, data = data, nil
		}
		if cs.line(line, in, &ev) == lineRecord {
			out.events = append(out.events, ev)
		}
	}
	out.part = cs.rep
	return out
}

// extractChunked is the multi-worker path: a producer cuts r into chunks,
// a pool parses them, and the ordered fan-in below merges each chunk's
// accounting into s and delivers its events, checking the absolute budget
// after every chunk so the verdict is identical at any worker count.
func extractChunked(r io.Reader, s *reportState, opt Options, each func(xid.Event) error, batch func([]xid.Event) error) error {
	workers := parallel.Resolve(opt.Workers)
	fresh := s.fresh()
	pool := parallel.NewOrdered(workers, 2*workers, opt.Meter, func(c chunk) (chunkResult, error) {
		in := getInterner()
		res := parseChunk(c, fresh, in)
		res.alloc = in.Stats()
		in.Reset()
		internerPool.Put(in)
		if c.owner != nil {
			putChunkBuf(c.owner)
		}
		return res, nil
	})

	readErr := make(chan error, 1)
	go func() {
		defer pool.CloseSubmit()
		readErr <- readChunks(r, fresh.lenient, fresh.opt.MaxLineBytes, pool.Submit)
	}()

	var stopErr error
	for {
		out, ok, _ := pool.Next()
		if !ok {
			break
		}
		if stopErr != nil {
			continue // draining after a failure; parseChunk itself never errors
		}
		s.merge(&out.part)
		if opt.Alloc != nil {
			opt.Alloc.Add(out.alloc)
		}
		if batch != nil {
			if len(out.events) > 0 {
				s.rep.Records += len(out.events)
				stopErr = batch(out.events)
			}
		} else {
			for _, ev := range out.events {
				s.rep.Records++
				if stopErr = each(ev); stopErr != nil {
					break
				}
			}
		}
		if stopErr == nil {
			stopErr = s.checkBudgets(false)
		}
		if stopErr != nil {
			pool.Abort()
		}
	}
	if stopErr != nil {
		return stopErr
	}
	return <-readErr
}

// readChunks cuts r into line-aligned chunks, reading straight into pooled
// buffers whose ownership passes to the parsing worker with each emit; emit
// reports false once the consumer aborted, which ends the read without
// error. Only the first line of a read continues the carried tail, so only
// it can outgrow the ceiling before the parser sees it: strict mode then
// fails with its line number, lenient mode keeps its sample for the next
// chunk and drops the rest of the line as it streams in.
func readChunks(r io.Reader, lenient bool, max int, emit func(chunk) bool) error {
	var (
		carry      []byte   // tail after the last newline; own backing, never a pooled buffer
		pre        [][]byte // samples of overlong lines dropped since the last chunk
		discarding bool     // dropping the rest of an overlong line
		lines      int      // complete lines consumed so far, for error context
	)
	for {
		bp := getChunkBuf(len(carry) + defaultChunkBytes)
		buf := (*bp)[:len(carry)+defaultChunkBytes]
		copy(buf, carry)
		n, err := io.ReadFull(r, buf[len(carry):])
		buf = buf[:len(carry)+n]
		carry = carry[:0]
		eof := err == io.EOF || err == io.ErrUnexpectedEOF
		if err != nil && !eof {
			putChunkBuf(bp)
			return readError(err, lines)
		}
		if discarding {
			if idx := bytes.IndexByte(buf, '\n'); idx < 0 {
				buf = buf[:0]
			} else {
				buf, discarding = buf[idx+1:], false
				lines++
			}
		}
		first := bytes.IndexByte(buf, '\n')
		if first < 0 {
			first = len(buf)
		}
		if first > max {
			if !lenient {
				putChunkBuf(bp)
				return tooLong(lines + 1)
			}
			pre = append(pre, append([]byte(nil), truncateSample(buf[:first])...))
			if first == len(buf) {
				buf, discarding = buf[:0], true
			} else {
				buf = buf[first+1:]
				lines++
			}
		}
		if eof {
			if len(buf) > 0 || len(pre) > 0 {
				emit(chunk{pre: pre, data: buf, owner: bp})
			} else {
				putChunkBuf(bp)
			}
			return nil
		}
		idx := bytes.LastIndexByte(buf, '\n')
		if idx < 0 {
			// No line boundary yet: keep accumulating in carry and recycle.
			carry = append(carry, buf...)
			putChunkBuf(bp)
			continue
		}
		lines += bytes.Count(buf[:idx+1], nl)
		// Copy the tail before the emit hands buf to a worker goroutine.
		carry = append(carry, buf[idx+1:]...)
		if !emit(chunk{pre: pre, data: buf[:idx+1], owner: bp}) {
			return nil
		}
		pre = nil
	}
}
