//go:build race

package coalesce

// raceEnabled gates the allocation-count test: under the race detector
// sync.Pool drops items at random, so Events allocates a varying amount.
const raceEnabled = true
