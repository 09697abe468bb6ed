//go:build !race

package syslog

const raceEnabled = false
