// Package adversary implements the honest-but-curious attacks of the paper
// against recorded adversarial views: the naive-partitioning inference
// attack (Example 2), the surviving-matches bipartite analysis that
// underlies the security proof (Figures 4a/4b), and the output-size,
// frequency-count and workload-skew attacks that §IV-B and §VI show QB
// defeats.
package adversary

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cloud"
	"repro/internal/relation"
)

// viewKey canonicalises a set of plaintext values (an observed NSB).
func plainKey(values []relation.Value) string {
	keys := make([]string, len(values))
	for i, v := range values {
		keys[i] = v.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// addrKey canonicalises a set of returned encrypted addresses (an observed
// SB footprint).
func addrKey(addrs []int) string {
	s := append([]int(nil), addrs...)
	sort.Ints(s)
	var b strings.Builder
	for i, a := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", a)
	}
	return b.String()
}

// BinGraph is the adversary's reconstruction of the bin-association
// bipartite graph from the view log: one node per distinct plaintext
// predicate set (non-sensitive bin) and one per distinct encrypted
// result-address footprint (sensitive bin), with an edge whenever the two
// were retrieved together.
type BinGraph struct {
	// SensGroups and NSGroups are the distinct footprints, in first-seen
	// order.
	SensGroups []string
	NSGroups   []string

	sensIdx map[string]int
	nsIdx   map[string]int
	edges   map[[2]int]bool
}

// AnalyzeViews groups the views into bin footprints and records their
// co-retrievals. Views with an empty side are grouped under that side's
// empty footprint only if the side carried a query at all.
func AnalyzeViews(views []cloud.View) *BinGraph {
	g := &BinGraph{
		sensIdx: make(map[string]int),
		nsIdx:   make(map[string]int),
		edges:   make(map[[2]int]bool),
	}
	for _, v := range views {
		si, ni := -1, -1
		if v.EncPredicates > 0 {
			k := addrKey(v.EncResultAddrs)
			var ok bool
			si, ok = g.sensIdx[k]
			if !ok {
				si = len(g.SensGroups)
				g.sensIdx[k] = si
				g.SensGroups = append(g.SensGroups, k)
			}
		}
		if len(v.PlainValues) > 0 {
			k := plainKey(v.PlainValues)
			var ok bool
			ni, ok = g.nsIdx[k]
			if !ok {
				ni = len(g.NSGroups)
				g.nsIdx[k] = ni
				g.NSGroups = append(g.NSGroups, k)
			}
		}
		if si >= 0 && ni >= 0 {
			g.edges[[2]int{si, ni}] = true
		}
	}
	return g
}

// Edges returns the number of observed associations.
func (g *BinGraph) Edges() int { return len(g.edges) }

// IsCompleteBipartite reports whether every sensitive footprint has been
// associated with every non-sensitive footprint — the condition under which
// all surviving matches are preserved and the adversary learns nothing
// (Figure 4a). It is vacuously true when either side is empty.
func (g *BinGraph) IsCompleteBipartite() bool {
	return len(g.edges) == len(g.SensGroups)*len(g.NSGroups)
}

// DroppedMatches returns the number of missing edges — each one a dropped
// surviving match of bins that leaks information (Figure 4b).
func (g *BinGraph) DroppedMatches() int {
	return len(g.SensGroups)*len(g.NSGroups) - len(g.edges)
}
