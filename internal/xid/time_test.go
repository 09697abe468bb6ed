package xid

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"
	"unsafe"
)

func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 48 {
		t.Fatalf("xid.Event is %d bytes, want at most 48", n)
	}
}

func TestTimeOfRange(t *testing.T) {
	for _, tc := range []struct {
		in time.Time
		ok bool
	}{
		{time.Unix(0, math.MinInt64), true},
		{time.Unix(0, math.MaxInt64), true},
		{time.Unix(0, math.MinInt64).Add(-1), false},
		{time.Unix(0, math.MaxInt64).Add(1), false},
		{time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), false},
		{time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC), false},
		{time.Time{}, false},
		{time.Date(2022, 9, 1, 8, 0, 0, 0, time.FixedZone("CDT", -5*3600)), true},
	} {
		got, err := TimeOf(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("TimeOf(%v) error %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		var re *RangeError
		if !tc.ok && !errors.As(err, &re) {
			t.Errorf("TimeOf(%v) error %T, want *RangeError", tc.in, err)
		}
		if tc.ok && !got.Time().Equal(tc.in) {
			t.Errorf("TimeOf(%v) = %v, a different instant", tc.in, got)
		}
	}
}

func TestUnixMatchesTimeOf(t *testing.T) {
	secs := []int64{0, -1, 1, 1_650_000_000, maxUnixSec, maxUnixSec - 1, maxUnixSec + 1,
		-maxUnixSec, -maxUnixSec - 1, -maxUnixSec - 2, math.MaxInt64, math.MinInt64}
	nsecs := []int64{0, 1, 145224191, 145224192, 854775807, 854775808, 999_999_999}
	for _, sec := range secs {
		for _, nsec := range nsecs {
			got, ok := Unix(sec, nsec)
			want, err := TimeOf(time.Unix(sec, nsec))
			if ok != (err == nil) || ok && got != want {
				t.Errorf("Unix(%d, %d) = %d, %v; TimeOf gives %d, %v", sec, nsec, got, ok, want, err)
			}
		}
	}
	for _, nsec := range []int64{-1, 1_000_000_000} {
		if _, ok := Unix(0, nsec); ok {
			t.Errorf("Unix(0, %d) accepted a nanosecond count outside [0, 1e9)", nsec)
		}
	}
}

func TestLatest(t *testing.T) {
	for _, tc := range []struct {
		in   time.Time
		want Time
		ok   bool
	}{
		{time.Time{}, 0, false},
		{MinTime.Time().Add(-1), 0, false},
		{MinTime.Time(), MinTime, true},
		{time.Unix(0, 42), 42, true},
		{MaxTime.Time(), MaxTime, true},
		{MaxTime.Time().Add(time.Hour), MaxTime, true},
	} {
		got, ok := Latest(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("Latest(%v) = %d, %v; want %d, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

// TestTimeArithmeticMatchesTime holds Sub and Within to time.Time's
// arithmetic, saturation and the range ends included.
func TestTimeArithmeticMatchesTime(t *testing.T) {
	times := []Time{MinTime, MinTime + 1, -1, 0, 1, 1_650_000_000_000_000_000, MaxTime - 1, MaxTime}
	windows := []time.Duration{0, 1, 5 * time.Second, math.MaxInt64}
	for _, a := range times {
		for _, b := range times {
			if got, want := a.Sub(b), a.Time().Sub(b.Time()); got != want {
				t.Errorf("%d.Sub(%d) = %v, time.Time gives %v", a, b, got, want)
			}
			for _, w := range windows {
				at, last := a.Time(), b.Time()
				want := at.Before(last.Add(w)) && !at.Before(last.Add(-w))
				if got := a.Within(b, w); got != want {
					t.Errorf("%d.Within(%d, %v) = %v, time.Time gives %v", a, b, w, got, want)
				}
			}
		}
	}
}

func TestNewEvent(t *testing.T) {
	at := time.Date(2022, 9, 1, 8, 0, 0, 123456000, time.UTC)
	ev, err := NewEvent(at, "gpub001", 3, NVLink, "link 0-3")
	if err != nil {
		t.Fatal(err)
	}
	want := Event{Time: Time(at.UnixNano()), Node: "gpub001", GPU: 3, Code: NVLink, Detail: "link 0-3"}
	if ev != want {
		t.Fatalf("NewEvent = %+v, want %+v", ev, want)
	}
	var re *RangeError
	if _, err := NewEvent(time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), "n", 0, MMU, ""); !errors.As(err, &re) {
		t.Fatalf("NewEvent in 2300: error %v, want *RangeError", err)
	}
	if _, err := NewEvent(at, "n", math.MaxInt32+1, MMU, ""); err == nil {
		t.Fatal("NewEvent accepted a GPU index past int32")
	}
}

// TestEventJSONMatchesTimeTime pins the event's JSON, the checkpoint's
// event encoding, to what it was while Event.Time was a time.Time.
func TestEventJSONMatchesTimeTime(t *testing.T) {
	at := time.Date(2022, 9, 1, 8, 0, 0, 123456000, time.UTC)
	got, err := json.Marshal(Event{Time: Time(at.UnixNano()), Node: "gpub001", GPU: 3, Code: NVLink, Detail: "d"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(struct {
		Time   time.Time
		Node   string
		GPU    int
		Code   int
		Detail string
	}{at, "gpub001", 3, 74, "d"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("event JSON %s, want %s", got, want)
	}
}

// FuzzEventTimeJSON: a Time marshals byte for byte as time.Time does for
// the same instant in UTC, and any time.Time JSON text unmarshals to the
// same instant, or to an error when the instant is out of range.
func FuzzEventTimeJSON(f *testing.F) {
	f.Add(int64(0), `"2022-09-01T08:00:00.123456Z"`)
	f.Add(int64(math.MinInt64), `"2022-09-01T03:00:00-05:00"`)
	f.Add(int64(math.MaxInt64), `"2300-01-01T00:00:00Z"`)
	f.Add(int64(-1), `"1600-01-01T00:00:00.000000Z"`)
	f.Add(int64(1), `null`)
	f.Add(int64(1_650_000_000_123_456_789), `"2262-04-11T23:47:16.854775807Z"`)
	f.Fuzz(func(t *testing.T, n int64, text string) {
		got, err := Time(n).MarshalJSON()
		if err != nil {
			t.Fatalf("MarshalJSON(%d): %v", n, err)
		}
		want, err := time.Unix(0, n).UTC().MarshalJSON()
		if err != nil {
			t.Fatalf("time.Time MarshalJSON(%d): %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("MarshalJSON(%d) = %s, time.Time gives %s", n, got, want)
		}
		var back Time
		if err := back.UnmarshalJSON(got); err != nil || back != Time(n) {
			t.Fatalf("round trip of %s = %d, %v; want %d", got, back, err, n)
		}

		var tt time.Time
		if err := tt.UnmarshalJSON([]byte(text)); err != nil {
			var x Time
			if x.UnmarshalJSON([]byte(text)) == nil && text != "null" {
				t.Fatalf("Time accepted %q, which time.Time rejects: %v", text, err)
			}
			return
		}
		x := Time(n)
		err = x.UnmarshalJSON([]byte(text))
		switch {
		case text == "null":
			if err != nil || x != Time(n) {
				t.Fatalf("null changed the Time to %d, %v", x, err)
			}
		case tt.Before(MinTime.Time()) || tt.After(MaxTime.Time()):
			var re *RangeError
			if !errors.As(err, &re) {
				t.Fatalf("UnmarshalJSON(%q) = %d, %v; want a *RangeError", text, x, err)
			}
		case err != nil || !x.Time().Equal(tt):
			t.Fatalf("UnmarshalJSON(%q) = %v, %v; time.Time gives %v", text, x, err, tt)
		}
	})
}
