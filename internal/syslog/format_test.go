package syslog

import (
	"time"

	"gpuresilience/internal/xid"
)

// FormatLine renders one raw Xid log line, the string form of AppendLine.
// It is exported for this package's external tests.
func FormatLine(ev xid.Event, pid int, procName string) string {
	return string(AppendLine(nil, ev, pid, procName))
}

// FormatNoise renders an unrelated kernel log line that the extractor must
// skip, the string form of AppendNoise.
func FormatNoise(t time.Time, node string, i int) string {
	return string(AppendNoise(nil, t, node, i))
}
