//go:build !race

package microarch

// raceEnabled reports a test binary built with the race detector; see
// race_test.go.
const raceEnabled = false
