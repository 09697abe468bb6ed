//go:build race

package ingest_test

// warmBound and coldCachedBound are TestSegmentsBytesPerEvent's warm and
// cold-with-a-cache bounds. The race detector makes both runs allocate
// more: 14.5 B/event against 10.1 warm and 39.0 against 30.1 cold with a
// cache, with Go 1.24, so each bound is that measurement plus 15%.
const (
	warmBound       = 16.7
	coldCachedBound = 44.9
)
