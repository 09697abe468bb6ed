//go:build !race

package ingest_test

// warmBound is TestSegmentsBytesPerEvent's warm bound.
const warmBound = 11.6
