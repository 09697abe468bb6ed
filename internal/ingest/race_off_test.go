//go:build !race

package ingest_test

// warmBound and coldCachedBound are TestSegmentsBytesPerEvent's warm and
// cold-with-a-cache bounds.
const (
	warmBound       = 11.6
	coldCachedBound = 34.6
)
