// Package suite registers the qbvet analyzer set in one place, shared by
// the cmd/qbvet multichecker and the cmd/qbaudit report generator. It
// lives beside the analyzers (not in package analysis, which they all
// import) to avoid an import cycle.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/lockdiscipline"
	"repro/internal/analysis/sensleak"
)

// Analyzers is the full qbvet suite, in reporting order:
//
//	sensleak        key material / decrypted sensitive values never reach
//	                error strings, logs, or encoders outside crypto+wire
//	lockdiscipline  no writes under RLock; storage mutations dominated
//	                by the per-store write lock (go vet's copylocks
//	                catches mutex copies)
var Analyzers = []*analysis.Analyzer{
	sensleak.Analyzer,
	lockdiscipline.Analyzer,
}
