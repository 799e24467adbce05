//go:build !race

package abstraction

const raceEnabled = false
