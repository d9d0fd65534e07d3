//go:build !race

package textutil

const raceEnabled = false
