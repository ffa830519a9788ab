// Package ring is the multi-node placement layer: it consistent-hashes
// namespaces across N qbcloud nodes with R-way replication, serves the
// resulting directory from a qbring coordinator over the ordinary wire
// protocol, and gives owner processes a wire.Transport (Router) that
// routes every per-namespace view to its replicas with read failover and
// write fan-out.
//
// Placement is deliberately dumb and deterministic: a virtual-node hash
// ring over the configured node list, a namespace's replicas being the
// first R distinct nodes clockwise from its hash point. Liveness does NOT
// move placement — a dead node keeps its slots and its replicas catch it
// up when it returns (anti-entropy repair, snapshot rejoin) — so a
// node flap never migrates data, it only fails reads over to the
// surviving replica and pauses that replica's writes until repair.
// Placement changes only when the configured membership changes, which
// bumps the directory version; routers fetch the directory once, at dial
// time.
//
// Replication never widens the paper's adversarial view: every byte a
// replica holds — clear-text partition, ciphertexts, tokens, addresses —
// is exactly the view the single-node cloud already exposed to the
// honest-but-curious operator; R-way replication shows that same view to
// R operators, each of which the threat model already assumes sees
// everything on its machine. Intra-ring transfer is guarded by a cluster
// ring token so tenants cannot inject repair traffic, and tampering by a
// malicious repairer is detectable owner-side because tuple ciphertexts
// are AEAD-sealed under keys the ring never holds.
package ring

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// VNodes is the number of virtual nodes each physical node projects onto
// the hash ring. 64 points per node keeps the per-namespace load spread
// within a few percent of even for small clusters while the ring stays
// tiny (N*64 points, binary-searched per placement).
const VNodes = 64

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node int // index into the directory's node list
}

// Ring is the computed placement structure for one directory generation.
// Build it once per directory version and reuse it; Placement is a binary
// search, not an RPC.
type Ring struct {
	dir    *Directory
	points []point
}

// hash64 maps a key to a ring position. sha256 (truncated) rather than a
// seeded runtime hash: placement must agree across processes — the
// coordinator, every client and qbadmin all compute it independently.
func hash64(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Build computes the hash ring for a directory. Every configured node —
// alive or not — projects VNodes points, so placement is a pure function
// of membership, never of liveness.
func Build(d *Directory) *Ring {
	r := &Ring{dir: d, points: make([]point, 0, len(d.Nodes)*VNodes)}
	var key [8]byte
	for i, n := range d.Nodes {
		for v := 0; v < VNodes; v++ {
			binary.BigEndian.PutUint64(key[:], uint64(v))
			r.points = append(r.points, point{hash: hash64(n.ID + "#" + string(key[:])), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r
}

// Replicas reports the effective replication factor: the configured R,
// clamped to the node count.
func (r *Ring) Replicas() int {
	n := r.dir.Replicas
	if n < 1 {
		n = 1
	}
	if n > len(r.dir.Nodes) {
		n = len(r.dir.Nodes)
	}
	return n
}

// Placement returns the namespace's replica set: the first R distinct
// nodes clockwise from the namespace's hash point, in ring order. The
// first entry is the namespace's primary — the replica reads prefer and
// repair treats as authoritative on ties.
func (r *Ring) Placement(namespace string) []Node {
	want := r.Replicas()
	out := make([]Node, 0, want)
	if len(r.points) == 0 {
		return out
	}
	h := hash64(namespace)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[int]struct{}, want)
	for i := 0; i < len(r.points) && len(out) < want; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, r.dir.Nodes[p.node])
	}
	return out
}
