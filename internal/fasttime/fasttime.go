// Package fasttime parses the pipeline's two fixed-layout UTC timestamp
// shapes to Unix time without the generality — or the allocations — of
// time.Parse.
//
// Both parsers accept ONLY the canonical byte shape their writers emit
// (syslog.AppendLine's microsecond layout, DumpDB's RFC 3339 seconds) and
// report ok=false for anything else. Callers fall back to time.Parse on a
// miss, so the combined accept/reject semantics — including time.Parse's
// leniencies such as one-digit hours or a comma fraction separator — are
// exactly the standard library's. The fast path only short-circuits inputs
// time.Parse would accept with the identical resulting instant.
package fasttime

// ByteSeq abstracts string and []byte so the parsers work directly on
// scanner-owned byte slices without a string copy.
type ByteSeq interface{ ~string | ~[]byte }

// UnixRFC3339UTC parses the canonical "2006-01-02T15:04:05Z" shape
// (exactly 20 bytes, 'Z' zone designator) to Unix seconds, straight from the
// civil date: no time.Time is built.
func UnixRFC3339UTC[T ByteSeq](b T) (int64, bool) {
	if len(b) != 20 || b[19] != 'Z' {
		return 0, false
	}
	y, mo, d, h, mi, s, ok := dateTime(b)
	if !ok {
		return 0, false
	}
	return daysFromCivil(y, mo, d)*86400 + int64(h*3600+mi*60+s), true
}

// daysFromCivil returns the days from 1970-01-01 to the proleptic Gregorian
// date y-mo-d, counting in 400-year eras whose years start on March 1, so
// the leap day is the last day of its year.
func daysFromCivil(y, mo, d int) int64 {
	if mo <= 2 {
		y--
	}
	era := y / 400
	if y < 0 {
		era = (y - 399) / 400
	}
	yoe := y - era*400  // [0, 399]
	mp := (mo + 9) % 12 // March is 0
	doy := (153*mp+2)/5 + d - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return int64(era)*146097 + int64(doe) - 719468
}

// UnixMicroUTC parses the canonical "2006-01-02T15:04:05.000000Z" shape
// (exactly 27 bytes: six fraction digits, 'Z' zone designator) to Unix
// seconds and the nanoseconds within that second, straight from the civil
// date: no time.Time is built.
func UnixMicroUTC[T ByteSeq](b T) (sec, nsec int64, ok bool) {
	if len(b) != 27 || b[19] != '.' || b[26] != 'Z' {
		return 0, 0, false
	}
	y, mo, d, h, mi, s, ok := dateTime(b)
	if !ok {
		return 0, 0, false
	}
	micro, ok := num(b, 20, 6)
	if !ok {
		return 0, 0, false
	}
	return daysFromCivil(y, mo, d)*86400 + int64(h*3600+mi*60+s), int64(micro) * 1000, true
}

// dateTime parses the shared 19-byte "2006-01-02T15:04:05" prefix with the
// same range rules time.Parse applies: month 1-12, day bounded by the
// month's length in that year, hour below 24, minute and second below 60.
// Out-of-range canonical-looking input is rejected here so the caller's
// time.Parse fallback produces the standard error.
func dateTime[T ByteSeq](b T) (y, mo, d, h, mi, s int, ok bool) {
	if b[4] != '-' || b[7] != '-' || b[10] != 'T' || b[13] != ':' || b[16] != ':' {
		return
	}
	var ok1, ok2, ok3, ok4, ok5, ok6 bool
	y, ok1 = num(b, 0, 4)
	mo, ok2 = num(b, 5, 2)
	d, ok3 = num(b, 8, 2)
	h, ok4 = num(b, 11, 2)
	mi, ok5 = num(b, 14, 2)
	s, ok6 = num(b, 17, 2)
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6) {
		return 0, 0, 0, 0, 0, 0, false
	}
	if mo < 1 || mo > 12 || d < 1 || d > daysIn(y, mo) || h > 23 || mi > 59 || s > 59 {
		return 0, 0, 0, 0, 0, 0, false
	}
	ok = true
	return
}

// num parses n decimal digits at offset off.
func num[T ByteSeq](b T, off, n int) (int, bool) {
	v := 0
	for i := off; i < off+n; i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return v, true
}

// daysIn returns the length of month mo in year y (proleptic Gregorian,
// matching time.Parse's day-of-month validation).
func daysIn(y, mo int) int {
	switch mo {
	case 4, 6, 9, 11:
		return 30
	case 2:
		if y%4 == 0 && (y%100 != 0 || y%400 == 0) {
			return 29
		}
		return 28
	}
	return 31
}
