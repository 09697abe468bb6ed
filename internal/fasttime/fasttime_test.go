package fasttime

import (
	"testing"
	"time"
)

const (
	microLayout = "2006-01-02T15:04:05.000000Z"
	secLayout   = time.RFC3339
)

// The fast parsers promise: every accepted input is one time.Parse would
// accept with the identical instant, and nothing time.Parse rejects is
// accepted. (Rejections are allowed to be a superset — callers fall back.)
func checkMicro(t *testing.T, in string) {
	t.Helper()
	sec, nsec, ok := UnixMicroUTC(in)
	want, err := time.Parse(microLayout, in)
	if ok && err != nil {
		t.Errorf("UnixMicroUTC(%q) accepted input time.Parse rejects: %v", in, err)
	}
	if ok && (sec != want.Unix() || nsec != int64(want.Nanosecond())) {
		t.Errorf("UnixMicroUTC(%q) = %d s %d ns, time.Parse = %v", in, sec, nsec, want)
	}
	// Byte-slice instantiation must agree with the string one.
	bsec, bnsec, bok := UnixMicroUTC([]byte(in))
	if bok != ok || (ok && (bsec != sec || bnsec != nsec)) {
		t.Errorf("UnixMicroUTC bytes/string diverge on %q", in)
	}
}

func checkSec(t *testing.T, in string) {
	t.Helper()
	got, ok := UnixRFC3339UTC(in)
	want, err := time.Parse(secLayout, in)
	if ok && err != nil {
		t.Errorf("UnixRFC3339UTC(%q) accepted input time.Parse rejects: %v", in, err)
	}
	if ok && got != want.Unix() {
		t.Errorf("UnixRFC3339UTC(%q) = %d, time.Parse = %d", in, got, want.Unix())
	}
	bgot, bok := UnixRFC3339UTC([]byte(in))
	if bok != ok || (ok && bgot != got) {
		t.Errorf("UnixRFC3339UTC bytes/string diverge on %q", in)
	}
}

var timestampCases = []string{
	// Canonical accepts.
	"2023-06-01T12:30:45Z",
	"2020-02-29T23:59:59Z", // leap day
	"0000-01-01T00:00:00Z",
	"9999-12-31T23:59:59Z",
	// Range rejects (fast path must not accept; time.Parse rejects too).
	"2023-02-29T00:00:00Z", // not a leap year
	"2100-02-29T00:00:00Z", // century non-leap
	"2000-02-29T00:00:00Z", // 400-year leap: accept
	"2023-13-01T00:00:00Z",
	"2023-00-10T00:00:00Z",
	"2023-04-31T00:00:00Z",
	"2023-06-01T24:00:00Z",
	"2023-06-01T12:60:00Z",
	"2023-06-01T12:30:60Z",
	// Structural rejects.
	"2023-06-01 12:30:45Z",
	"2023-06-01t12:30:45Z",
	"2023-06-01T12:30:45",
	"2023-06-01T12:30:45+00:00",
	"202X-06-01T12:30:45Z",
	"",
	"Z",
}

func TestRFC3339Differential(t *testing.T) {
	for _, c := range timestampCases {
		checkSec(t, c)
	}
	// Round-trip every second of a day boundary window.
	base := time.Date(2023, 12, 31, 23, 59, 0, 0, time.UTC)
	for i := 0; i < 120; i++ {
		at := base.Add(time.Duration(i) * time.Second)
		checkSec(t, at.Format(secLayout))
	}
	// And every day around the leap days and era edges of the civil-date
	// arithmetic, negative Unix times included.
	for _, y := range []int{0, 1, 1600, 1900, 1969, 1970, 2000, 2100, 2262, 2400, 9999} {
		first := time.Date(y, 1, 1, 12, 0, 0, 0, time.UTC)
		for day := 0; day < 366; day++ {
			checkSec(t, first.AddDate(0, 0, day).Format(secLayout))
		}
	}
}

func TestMicroDifferential(t *testing.T) {
	for _, c := range timestampCases {
		// Adapt the seconds-shaped cases to the micro layout.
		if len(c) == 20 {
			c = c[:19] + ".123456Z"
		}
		checkMicro(t, c)
	}
	for _, c := range []string{
		"2023-06-01T12:30:45.000000Z",
		"2023-06-01T12:30:45.999999Z",
		"2023-06-01T12:30:45,123456Z", // comma fraction: time.Parse accepts, fast path must defer
		"2023-06-01T12:30:45.12345Z",  // five digits
		"2023-06-01T12:30:45.1234567Z",
		"2023-06-01T12:30:45.12345xZ",
	} {
		checkMicro(t, c)
	}
	base := time.Date(2024, 2, 28, 23, 59, 59, 999999000, time.UTC)
	for i := 0; i < 100; i++ {
		at := base.Add(time.Duration(i) * 777 * time.Millisecond)
		checkMicro(t, at.Format(microLayout))
	}
	// The civil-date arithmetic's era edges, negative Unix times and the
	// ends of the int64-nanosecond range included.
	for _, y := range []int{0, 1, 1600, 1677, 1969, 1970, 2000, 2262, 2400, 9999} {
		first := time.Date(y, 2, 27, 23, 59, 59, 999999000, time.UTC)
		for day := 0; day < 3; day++ {
			checkMicro(t, first.AddDate(0, 0, day).Format(microLayout))
		}
	}
}

func TestCanonicalCoverage(t *testing.T) {
	// The writers' own output must take the fast path: that is the whole
	// point of the package.
	if _, _, ok := UnixMicroUTC(time.Now().UTC().Format(microLayout)); !ok {
		t.Error("canonical micro timestamp missed the fast path")
	}
	if _, ok := UnixRFC3339UTC(time.Now().UTC().Format(secLayout)); !ok {
		t.Error("canonical RFC3339 UTC timestamp missed the fast path")
	}
}

func TestParseAllocs(t *testing.T) {
	in := []byte("2023-06-01T12:30:45.123456Z")
	sec := []byte("2023-06-01T12:30:45Z")
	if n := testing.AllocsPerRun(200, func() {
		if _, _, ok := UnixMicroUTC(in); !ok {
			t.Fatal("miss")
		}
		if _, ok := UnixRFC3339UTC(sec); !ok {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Errorf("fast-path timestamp parse allocates %v times per run, want 0", n)
	}
}
