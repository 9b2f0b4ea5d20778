//go:build !race

package multistep

const raceEnabled = false
