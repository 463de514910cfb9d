//go:build !race

package suite

const raceEnabled = false
