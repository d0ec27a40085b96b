package network

import "speedofdata/internal/engine"

// Sweep points persist in the engine's disk cache tier; bump the version
// when the computation behind the network.sweep job keys changes meaning.
func init() {
	engine.RegisterResultType(Point{}, 1)
}
