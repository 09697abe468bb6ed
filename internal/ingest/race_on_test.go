//go:build race

package ingest_test

// warmBound is TestSegmentsBytesPerEvent's warm bound. The race detector
// makes a warm run allocate more: 14.5 B/event against 10.1 with Go 1.24,
// so its bound is that measurement plus 15%.
const warmBound = 16.7
