//go:build race

package engine

// raceEnabled reports a -race build, in which sync.Pool drops a random
// share of what it is given, the runner's arenas included.
const raceEnabled = true
