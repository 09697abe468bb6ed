//go:build race

package stream_test

// raceEnabled thins the every-prefix checkpoint test: the race detector
// slows each prefix's JSON scan about tenfold.
const raceEnabled = true
