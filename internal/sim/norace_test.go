//go:build !race

package sim

// raceEnabled reports that the race detector is on.
const raceEnabled = false
