//go:build !race

package query

// raceEnabled reports a build under the race detector, whose sync.Pool
// drops values at random.
const raceEnabled = false
