//go:build race

package server

// raceEnabled reports a -race build, whose sync.Pool drops items at random
// and so changes allocation counts.
const raceEnabled = true
