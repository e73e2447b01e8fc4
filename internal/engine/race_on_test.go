//go:build race

package engine

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so allocation counts through pooled scratch
// are not stable under it.
const raceEnabled = true
