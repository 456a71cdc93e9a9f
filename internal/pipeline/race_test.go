//go:build race

package pipeline

// raceEnabled lets allocation tests skip themselves: the race detector
// allocates on its own account.
const raceEnabled = true
