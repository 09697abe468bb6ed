package syslog

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"gpuresilience/internal/randx"
	"gpuresilience/internal/xid"
)

// TestParseNeverPanicsOnMutatedLines mutates valid log lines byte-wise and
// checks the extractor degrades gracefully (skip or error, never panic,
// never a half-parsed bogus event with out-of-range fields).
func TestParseNeverPanicsOnMutatedLines(t *testing.T) {
	base := FormatLine(xid.Event{
		Time: xid.Time(time.Date(2023, 6, 1, 12, 30, 45, 123456000, time.UTC).UnixNano()),
		Node: "gpub042", GPU: 2, Code: xid.NVLink, Detail: "link 1-2 CRC failure",
	}, 4242, "python")
	rng := randx.NewStream(99)
	for i := 0; i < 20000; i++ {
		b := []byte(base)
		// 1-3 random byte mutations.
		for m := 0; m < 1+rng.Intn(3); m++ {
			b[rng.Intn(len(b))] = byte(rng.Intn(256))
		}
		ev, ok, err := ParseLine(string(b))
		if err != nil || !ok {
			continue // rejected: fine
		}
		// Accepted: the event must be structurally sane.
		if ev.Node == "" || ev.GPU < 0 {
			t.Fatalf("mutated line produced bogus event %+v from %q", ev, b)
		}
	}
}

// TestParseTruncatedLines feeds every prefix of a valid line.
func TestParseTruncatedLines(t *testing.T) {
	base := FormatLine(xid.Event{
		Time: xid.Time(time.Date(2023, 6, 1, 12, 30, 45, 0, time.UTC).UnixNano()),
		Node: "gpub001", GPU: 0, Code: xid.MMU, Detail: "detail",
	}, 1, "proc")
	for i := 0; i < len(base); i++ {
		if _, ok, err := ParseLine(base[:i]); ok && err == nil {
			// A strict prefix may parse only if it still matches the full
			// pattern with a shorter detail; that requires the line through
			// the last comma to be intact.
			if i < strings.LastIndex(base, ", ") {
				t.Fatalf("prefix %q parsed", base[:i])
			}
		}
	}
}

// Property: format->parse round-trips for arbitrary identities.
func TestFormatParseRoundTripProperty(t *testing.T) {
	codes := []xid.Code{xid.MMU, xid.DBE, xid.RRE, xid.RRF, xid.NVLink,
		xid.FallenOffBus, xid.ContainedMem, xid.UncontainedMem,
		xid.GSPRPCTimeout, xid.GSPError, xid.PMUSPIReadFail, xid.PMUSPIWriteFail}
	f := func(nodeN uint16, gpu uint8, codeIdx uint8, secs uint32, pid uint16) bool {
		ev := xid.Event{
			Time: xid.Time(time.Unix(int64(secs)+1600000000, 123000).UTC().UnixNano()),
			Node: "gpub" + strconv3(int(nodeN%999)+1),
			GPU:  int32(gpu % 8),
			Code: codes[int(codeIdx)%len(codes)],
		}
		line := FormatLine(ev, int(pid), "x")
		back, ok, err := ParseLine(line)
		return ok && err == nil && back.Node == ev.Node && back.GPU == ev.GPU &&
			back.Code == ev.Code && back.Time == ev.Time
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func strconv3(n int) string {
	digits := []byte{'0', '0', '0'}
	for i := 2; i >= 0 && n > 0; i-- {
		digits[i] = byte('0' + n%10)
		n /= 10
	}
	return string(digits)
}
