package stream

import (
	"strings"

	"gpuresilience/internal/syslog"
	"gpuresilience/internal/xid"
)

// Feed is an in-process ingest source: tests and embedded pipelines push
// lines (or events, formatted as the syslog writer would) straight into an
// engine without touching the filesystem. Like a Tailer it numbers lines
// monotonically, so redelivery after a checkpoint resume dedupes the same
// way.
//
// A Feed is not safe for concurrent use; give each producer goroutine its
// own named feed.
type Feed struct {
	engine *Engine
	name   string
	lineNo int64
}

// NewFeed returns a feed that pushes into e under the given source name.
func NewFeed(e *Engine, name string) *Feed {
	return &Feed{engine: e, name: name}
}

// Name returns the feed's source name.
func (f *Feed) Name() string { return f.name }

// Lines returns how many lines the feed has pushed.
func (f *Feed) Lines() int64 { return f.lineNo }

// SetStart positions the feed's line counter at a checkpointed value, so a
// resumed producer that replays its tail is absorbed as duplicates.
func (f *Feed) SetStart(lineNo int64) { f.lineNo = lineNo }

// Line pushes one raw log line (no trailing newline).
func (f *Feed) Line(line string) error {
	f.lineNo++
	return f.engine.ConsumeLine(f.name, f.lineNo, line)
}

// Push splits a block of newline-separated raw log text into lines and
// pushes each, ignoring empty lines.
func (f *Feed) Push(text string) error {
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if err := f.Line(line); err != nil {
			return err
		}
	}
	return nil
}

// Event formats ev the way the syslog writer does and pushes the line —
// the shortcut embedded producers use instead of formatting themselves.
func (f *Feed) Event(ev xid.Event) error {
	return f.Line(string(syslog.AppendLine(nil, ev, 0, "feed")))
}
