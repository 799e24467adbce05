//go:build race

package netsim

// raceEnabled reports that the race detector is on: it slows every
// goroutine several times over, so the CPU and lateness bounds of the
// sleep guards do not hold.
const raceEnabled = true
