package core

import (
	"speedofdata/internal/engine"
	"speedofdata/internal/report"
)

// Persistable result types for the engine's disk cache tier
// (internal/store).  report.Section is the registry's top-level unit —
// RunReport caches one section per (experiment, bits, params) fingerprint —
// so persisting it is what makes a restarted qsd serve replica answer its
// first report request from disk.  Bump a version when a code change alters
// the results behind the type's keys in a way the key itself does not encode.
func init() {
	engine.RegisterResultType(report.Section{}, 2)
	engine.RegisterResultType(PrepErrorResult{}, 1)
}
