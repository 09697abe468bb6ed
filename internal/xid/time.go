package xid

import (
	"fmt"
	"math"
	"time"
)

// Time is an event instant as Unix nanoseconds, always UTC. Every int64 is
// an instant, from MinTime through MaxTime; there is no "unset" value, so
// the zero Time is the Unix epoch. Times order and subtract as integers.
// Build one from a time.Time with TimeOf, which rejects the instants
// outside that range.
type Time int64

// MinTime and MaxTime bound the instants a Time holds: the int64
// nanosecond range.
const (
	MinTime Time = math.MinInt64 // 1677-09-21T00:12:43.145224192Z
	MaxTime Time = math.MaxInt64 // 2262-04-11T23:47:16.854775807Z
)

// minInstant and maxInstant are MinTime and MaxTime as time.Time values.
var (
	minInstant = MinTime.Time()
	maxInstant = MaxTime.Time()
)

// RangeError reports an instant a Time cannot hold.
type RangeError struct {
	T time.Time // the rejected instant
}

// Error implements error.
func (e *RangeError) Error() string {
	return fmt.Sprintf("xid: time %s outside %s..%s",
		e.T.Format(time.RFC3339Nano), minInstant.Format(time.RFC3339Nano), maxInstant.Format(time.RFC3339Nano))
}

// TimeOf returns t as a Time, or a *RangeError when t lies outside
// [MinTime, MaxTime].
func TimeOf(t time.Time) (Time, error) {
	if t.Before(minInstant) || t.After(maxInstant) {
		return 0, &RangeError{T: t}
	}
	return Time(t.UnixNano()), nil
}

// maxUnixSec is the last whole second a Time reaches; the first it
// reaches, in part, is -maxUnixSec-1.
const maxUnixSec = math.MaxInt64 / int64(time.Second)

// Unix returns the instant sec seconds and nsec nanoseconds after the Unix
// epoch, with 0 <= nsec < 1e9, without building a time.Time. The boolean
// is false when the instant lies outside [MinTime, MaxTime] or nsec is out
// of its range.
func Unix(sec, nsec int64) (Time, bool) {
	if nsec < 0 || nsec >= int64(time.Second) || sec > maxUnixSec || sec < -maxUnixSec-1 {
		return 0, false
	}
	if sec < 0 {
		// Borrow a second so sec*1e9 cannot overflow on the first second.
		sec++
		nsec -= int64(time.Second)
	}
	s := sec * int64(time.Second)
	if nsec > 0 && s > math.MaxInt64-nsec || nsec < 0 && s < math.MinInt64-nsec {
		return 0, false
	}
	return Time(s + nsec), true
}

// Latest returns the latest Time at or before t. The boolean is false when
// every Time is after t. So an event time e is at or before t exactly when
// ok && e <= Latest(t).
func Latest(t time.Time) (Time, bool) {
	switch {
	case t.Before(minInstant):
		return 0, false
	case t.After(maxInstant):
		return MaxTime, true
	}
	return Time(t.UnixNano()), true
}

// Time returns t as a time.Time in UTC.
func (t Time) Time() time.Time { return time.Unix(0, int64(t)).UTC() }

// Sub returns t-u, saturating at the longest durations as time.Time.Sub
// does.
func (t Time) Sub(u Time) time.Duration {
	d := time.Duration(t - u)
	switch {
	case t > u && d < 0:
		return math.MaxInt64
	case t < u && d > 0:
		return math.MinInt64
	}
	return d
}

// Within reports whether t lies in [u-w, u+w), computed without overflow:
// the window a coalescing key's last kept occurrence u casts, for w >= 0.
func (t Time) Within(u Time, w time.Duration) bool {
	if t >= u {
		return uint64(t)-uint64(u) < uint64(w)
	}
	return uint64(u)-uint64(t) <= uint64(w)
}

// String returns t in time.Time's default format, in UTC.
func (t Time) String() string { return t.Time().String() }

// MarshalJSON encodes t exactly as time.Time encodes the same instant in
// UTC: an RFC 3339 string with nanoseconds, trailing zeros trimmed.
func (t Time) MarshalJSON() ([]byte, error) { return t.Time().MarshalJSON() }

// UnmarshalJSON decodes any time.Time JSON text, whatever its zone offset,
// to the same instant; an instant outside [MinTime, MaxTime] is an error.
// As for time.Time, null leaves t unchanged.
func (t *Time) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	var tt time.Time
	if err := tt.UnmarshalJSON(data); err != nil {
		return err
	}
	v, err := TimeOf(tt)
	if err != nil {
		return err
	}
	*t = v
	return nil
}
