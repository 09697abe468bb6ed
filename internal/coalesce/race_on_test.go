//go:build race

package coalesce

// raceEnabled gates the allocation-count test: under the race detector
// Events allocates more (13 times per call against 11 with Go 1.24).
const raceEnabled = true
