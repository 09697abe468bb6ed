//go:build race

package syslog

// raceEnabled gates the exact allocation-count tests: under the race
// detector sync.Pool drops items at random, so pooled scans allocate a
// varying amount.
const raceEnabled = true
