//go:build !race

package approx

const raceEnabled = false
