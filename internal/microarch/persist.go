package microarch

import "speedofdata/internal/engine"

// Sweep results persist in the engine's disk cache tier; bump the version
// when the computation behind the microarch.simulate job keys changes
// meaning.
func init() {
	engine.RegisterResultType(Result{}, 1)
}
