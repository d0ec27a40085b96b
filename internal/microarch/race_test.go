//go:build race

package microarch

// raceEnabled reports a test binary built with the race detector, which
// makes sync.Pool drop pooled objects at random: allocation counts then vary
// from run to run.
const raceEnabled = true
