//go:build race

package approx

// raceEnabled reports that the race detector is on. It makes sync.Pool
// drop a share of what is put back, so a zero-allocation assertion on a
// pooled path cannot hold under it.
const raceEnabled = true
