//go:build race

package chirp

// raceEnabled reports that the race detector is on: sync.Pool then
// drops a quarter of what it is given, so allocation bounds that lean
// on a warm pool do not hold.
const raceEnabled = true
