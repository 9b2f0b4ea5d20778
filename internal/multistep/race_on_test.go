//go:build race

package multistep

// raceEnabled reports that the race detector is on. It makes sync.Pool
// drop a share of what is put back, so an allocation bound on the pooled
// join scratch cannot hold under it.
const raceEnabled = true
