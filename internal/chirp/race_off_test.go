//go:build !race

package chirp

const raceEnabled = false
