package main

import (
	"fmt"

	"repro"
)

// The load shape is the same for every workload and is fixed here, not
// behind flags: later issues compare numbers measured at exactly these
// sizes, so a knob would only create runs that cannot be compared.
const (
	tenants          = 2 // namespaces; one caller and one connection each
	tuplesPerTen     = 50_000
	distinctValues   = 1_000
	sensAlpha        = 0.4
	assocFraction    = 0.5
	extraColumns     = 1
	zipfS            = 1.2
	sensitiveInserts = 0.4 // share of inserts that go to the encrypted partition
	warmOps          = 300 // checked, untimed ops per caller before the first timed one
	rewarmOps        = 20  // ops per caller that warm a session resumed between phases
	segmentSeconds   = 2.0 // how long one owner session is driven before a fresh one takes over
	batchSize        = 256 // selections per QueryBatch call
	setupReps        = 3   // full set-ups per run; setup_s is their median
	shortSegments    = 2   // segments of the batch phase and of the write tail: one before the steady phase, one after
	ringNodes        = 3
	ringReplicas     = 2
	ringToken        = "qb-bench-ring-token"
	insertIDBase     = 10_000_000 // inserted tuple IDs start here, above every generated ID
)

// workloadSpec is one named traffic mix over one deployment shape.
type workloadSpec struct {
	name         string
	tech         repro.Technique
	disableCache bool
	readFraction float64
	ring         bool
	// pacedRate is the open-loop arrival rate per caller of the traced
	// pass's continuity phase, in reads/s: about half of what one caller
	// completed closed-loop on the seed code.
	pacedRate float64
}

// readOnly reports whether the steady phase issues no inserts; such a
// workload measures its write latencies in a separate tail phase.
func (w workloadSpec) readOnly() bool { return w.readFraction == 1 }

// The names are cited by later issues; do not rename.
var workloads = []workloadSpec{
	{name: "hot-read", tech: repro.TechNoInd, readFraction: 1, pacedRate: 300},
	{name: "cold-scan", tech: repro.TechNoInd, disableCache: true, readFraction: 1, pacedRate: 50},
	{name: "index-write", tech: repro.TechDetIndex, readFraction: 0.5, pacedRate: 200},
	{name: "ring-write", tech: repro.TechDetIndex, readFraction: 0.5, ring: true, pacedRate: 200},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// phases splits the measured seconds of one untraced run. Read-only
// workloads give a fifth of the time to the write tail that produces
// their write_p50_ms/write_p95_ms; mixed workloads take those from the
// steady phase and spend that fifth there instead.
type phases struct{ steady, batch, writeTail float64 }

func (w workloadSpec) phases(seconds float64) phases {
	if w.readOnly() {
		return phases{steady: 0.6 * seconds, batch: 0.2 * seconds, writeTail: 0.2 * seconds}
	}
	return phases{steady: 0.8 * seconds, batch: 0.2 * seconds}
}
