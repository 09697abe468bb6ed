package stream

import (
	"bufio"
	"io"
	"os"

	"gpuresilience/internal/syslog"
)

// LineFunc receives one complete log line (newline stripped, a carriage
// return before it kept for Stage I to drop) with its source name and
// 1-based line number. Engine.ConsumeLine satisfies it via a method value.
type LineFunc func(source string, lineNo int64, line string) error

// Tailer follows one log file the way the daemon consumes live syslog: it
// delivers complete lines as they are appended, survives rotation (rename
// and recreate — the old handle is drained to EOF before switching to the
// new file) and in-place truncation (copytruncate — the offset resets and
// the file is re-read from the start), and never delivers a partially
// written line: the byte offset only ever advances over lines that ended
// in a newline, so a line caught mid-write is re-read whole on the next
// poll. Line numbers increase monotonically across rotations, which is
// what the engine's duplicate guard keys on.
//
// A line longer than syslog.MaxLineBytes is delivered as its first
// MaxLineBytes+1 bytes, which the engine counts as malformed, and the rest
// is dropped as it arrives, newline included — even before that newline
// is written — so the tailer never holds more than that of any line.
//
// A Tailer is not safe for concurrent use; the daemon polls all tailers
// from its single ingest goroutine.
type Tailer struct {
	path     string
	f        *os.File
	offset   int64 // bytes consumed from the current file: complete lines, dropped overlong bytes
	lineNo   int64 // lines delivered across all incarnations of the file
	dropping bool  // skipping the rest of a delivered overlong line
}

// NewTailer returns a tailer for path. The file may not exist yet; polls
// deliver nothing until it appears.
func NewTailer(path string) *Tailer {
	return &Tailer{path: path}
}

// Name returns the source name the tailer stamps on lines: its path.
func (t *Tailer) Name() string { return t.path }

// Offset returns the byte offset consumed through in the current file.
func (t *Tailer) Offset() int64 { return t.offset }

// Lines returns how many lines the tailer has delivered in total.
func (t *Tailer) Lines() int64 { return t.lineNo }

// SetStart positions the tailer at a checkpointed offset and line count,
// so a resumed daemon re-reads nothing. If the file was rotated or
// truncated while the daemon was down, the size check in the next poll
// resets the offset and the engine's line marks absorb any redelivery.
func (t *Tailer) SetStart(offset, lineNo int64) {
	t.offset = offset
	t.lineNo = lineNo
}

// Close releases the file handle. The tailer remains usable; the next poll
// reopens the path.
func (t *Tailer) Close() error {
	if t.f == nil {
		return nil
	}
	err := t.f.Close()
	t.f = nil
	return err
}

// Poll drains everything currently readable: complete lines from the open
// file, then — if the path now names a different file — the rotation
// switch and the new file's lines. Returns how many lines were delivered.
// A missing path is not an error; it just delivers nothing.
func (t *Tailer) Poll(fn LineFunc) (int, error) {
	total := 0
	for {
		if t.f == nil {
			f, err := os.Open(t.path)
			if err != nil {
				if os.IsNotExist(err) {
					return total, nil
				}
				return total, err
			}
			t.f = f
		}
		n, err := t.readAvailable(fn)
		total += n
		if err != nil {
			return total, err
		}
		rotated, err := t.checkRotation()
		if err != nil || !rotated {
			return total, err
		}
		// Rotated: the old file is drained; loop to read the new one.
	}
}

// readAvailable delivers the open file's complete lines from the current
// offset to EOF. A trailing line with no newline yet is left for the next
// poll (the offset does not cover it), so a write caught mid-line is never
// delivered torn — unless it is already overlong, see Tailer.
func (t *Tailer) readAvailable(fn LineFunc) (int, error) {
	fi, err := t.f.Stat()
	if err != nil {
		return 0, err
	}
	if fi.Size() < t.offset {
		// Truncated in place: start over. Redelivered line numbers keep
		// climbing, so the engine treats the re-read as new input.
		t.offset = 0
		t.dropping = false
	}
	if fi.Size() == t.offset {
		return 0, nil
	}
	if _, err := t.f.Seek(t.offset, io.SeekStart); err != nil {
		return 0, err
	}
	r := bufio.NewReader(t.f)
	delivered := 0
	var (
		line []byte // the current line's head, at most MaxLineBytes+1 bytes
		read int64  // bytes of the current line read so far
	)
	for {
		frag, err := r.ReadSlice('\n')
		if err != nil && err != bufio.ErrBufferFull && err != io.EOF {
			return delivered, err
		}
		n := len(frag)
		ended := err == nil // frag ends in the line's newline
		if ended {
			frag = frag[:n-1]
		}
		if t.dropping {
			// The rest of an overlong line that was already delivered.
			t.offset += int64(n)
			t.dropping = !ended
		} else {
			read += int64(n)
			line = append(line, frag[:min(len(frag), syslog.MaxLineBytes+1-len(line))]...)
			if ended || len(line) > syslog.MaxLineBytes {
				// A complete line, or an overlong one delivered before its end.
				t.offset += read
				t.dropping = !ended
				text := string(line)
				line, read = line[:0], 0
				t.lineNo++
				if err := fn(t.path, t.lineNo, text); err != nil {
					return delivered, err
				}
				delivered++
			}
		}
		if err == io.EOF {
			return delivered, nil
		}
	}
}

// checkRotation reports whether the path now names a different file than
// the open handle (logrotate's rename-and-recreate). If so, the old handle
// is closed and the offset reset; the caller re-opens and reads the new
// file. A deleted path keeps the old handle — a recreate shows up as a
// rotation on a later poll.
func (t *Tailer) checkRotation() (bool, error) {
	fi, err := os.Stat(t.path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	ofi, err := t.f.Stat()
	if err != nil {
		return false, err
	}
	if os.SameFile(fi, ofi) {
		return false, nil
	}
	if err := t.f.Close(); err != nil {
		return false, err
	}
	t.f = nil
	t.offset = 0
	t.dropping = false
	return true, nil
}
