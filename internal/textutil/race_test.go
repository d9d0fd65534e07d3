//go:build race

package textutil

// raceEnabled reports a -race build: sync.Pool then drops pooled buffers
// at random, so allocation counts are not meaningful.
const raceEnabled = true
