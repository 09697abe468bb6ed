package syslog

import (
	"testing"
	"time"

	"gpuresilience/internal/xid"
)

// FuzzParseLine checks the Stage I extractor never panics and never
// produces structurally bogus events, whatever bytes the logs contain.
func FuzzParseLine(f *testing.F) {
	f.Add(FormatLine(xid.Event{
		Time: xid.Time(time.Date(2023, 6, 1, 12, 30, 45, 123456000, time.UTC).UnixNano()),
		Node: "gpub042", GPU: 2, Code: xid.NVLink, Detail: "link 1-2 CRC failure",
	}, 4242, "python"))
	f.Add(FormatNoise(time.Now().UTC(), "gpub001", 0))
	f.Add("")
	f.Add("2023-06-01T12:30:45.123456Z gpub001 kernel: NVRM: Xid (PCI:0000:07:00): 31, pid=1, name=, d")
	f.Add("garbage NVRM: Xid (PCI:::::): -1, pid=x, name=y, z")
	f.Fuzz(func(t *testing.T, line string) {
		ev, ok, err := ParseLine(line)
		if err != nil && ok {
			t.Fatal("ok with error")
		}
		if ok {
			if ev.Node == "" || ev.GPU < 0 {
				t.Fatalf("accepted bogus event %+v from %q", ev, line)
			}
		}
	})
}
