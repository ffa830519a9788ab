// Command qbadmin is the data owner's control-plane CLI against a live
// qbcloud: namespace lifecycle and health, authenticated by the owner's
// master key. Per-namespace operations derive the namespace's owner token
// from the master key (the same derivation the client library uses, so
// whoever outsourced a relation can administer it) and are refused by the
// cloud for any other key: the cloud stores only a hash of the token,
// registered by the namespace's first write.
//
// Usage:
//
//	qbadmin -addr HOST:PORT ping
//	qbadmin -addr HOST:PORT list
//	qbadmin -addr HOST:PORT -master KEY -store NAME stats
//	qbadmin -addr HOST:PORT -master KEY -store NAME compact
//	qbadmin -addr HOST:PORT -master KEY -store NAME drop
//	qbadmin -addr HOST:PORT -master KEY -store NAME -n N set-workers
//	qbadmin -addr RING_ADDR ring
//
// ping and list need no key (liveness and discovery); stats, compact,
// drop and set-workers are per-namespace and owner-authenticated. ring
// points -addr at a qbring coordinator instead of a qbcloud and prints
// the cluster picture: membership with liveness, and for every hosted
// namespace its replica placement with per-replica row counts and
// version counters, marking replicas whose row counts diverge (the
// anti-entropy repair loop's work queue). drop
// destroys the namespace's clear-text partition, encrypted rows and owner
// registration irrecoverably (modulo cloud snapshots taken before the
// drop). set-workers overrides the namespace's admission bound (the
// server-wide -store-workers default) at runtime: -n N with N > 0 bounds
// the namespace to N concurrent ops, N = 0 lifts the bound for it, and a
// negative N clears the override; the override persists across cloud
// snapshots.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/ring"
	"repro/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7040", "qbcloud address")
	master := flag.String("master", "", "owner master key (required for stats/compact/drop/set-workers)")
	store := flag.String("store", "", "namespace to administer (\"\" = the default store)")
	workers := flag.Int("n", -1, "set-workers: admission bound (>0 bound, 0 unlimited, <0 clear the override)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: qbadmin -addr HOST:PORT [-master KEY] [-store NAME] [-n N] ping|list|stats|compact|drop|set-workers|ring")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, *addr, *master, *store, flag.Arg(0), *workers); err != nil {
		fmt.Fprintln(os.Stderr, "qbadmin:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, addr, master, store, cmd string, workers int) error {
	c, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()

	// Per-namespace commands authenticate with the owner token derived
	// from the master key — the key itself never crosses the wire.
	token := func() ([]byte, error) {
		if master == "" {
			return nil, fmt.Errorf("%s requires -master (the owner's master key)", cmd)
		}
		return wire.OwnerToken([]byte(master), store), nil
	}

	switch cmd {
	case "ping":
		if err := c.Ping(); err != nil {
			return err
		}
		fmt.Fprintf(w, "qbadmin: %s is alive (protocol v%d)\n", addr, wire.ProtocolVersion)
	case "list":
		names, err := c.AdminList()
		if err != nil {
			return err
		}
		if len(names) == 0 {
			fmt.Fprintln(w, "qbadmin: no stores")
			return nil
		}
		for _, name := range names {
			fmt.Fprintln(w, name)
		}
	case "stats":
		tok, err := token()
		if err != nil {
			return err
		}
		s, err := c.AdminStats(store, tok)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "qbadmin: store %q: ops=%d plain_tuples=%d enc_rows=%d cond_hits=%d workers=%s\n",
			storeLabel(store), s.Ops, s.PlainTuples, s.EncRows, s.CondHits, workersLabel(s.Workers))
	case "compact":
		tok, err := token()
		if err != nil {
			return err
		}
		n, err := c.AdminCompact(store, tok)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "qbadmin: store %q compacted: %d rows retained\n", storeLabel(store), n)
	case "drop":
		tok, err := token()
		if err != nil {
			return err
		}
		if err := c.AdminDrop(store, tok); err != nil {
			return err
		}
		fmt.Fprintf(w, "qbadmin: store %q dropped\n", storeLabel(store))
	case "set-workers":
		tok, err := token()
		if err != nil {
			return err
		}
		n, err := c.AdminSetWorkers(store, tok, workers)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "qbadmin: store %q admission bound: %s\n", storeLabel(store), workersLabel(n))
	case "ring":
		return ringStatus(w, c)
	default:
		return fmt.Errorf("unknown command %q (want ping|list|stats|compact|drop|set-workers|ring)", cmd)
	}
	return nil
}

// ringStatus renders the cluster picture from a qbring coordinator:
// membership, and per-namespace replica placement with row counts.
func ringStatus(w io.Writer, c *wire.Client) error {
	dir, err := ring.FetchDirectory(c)
	if err != nil {
		return fmt.Errorf("fetch ring directory (is -addr a qbring coordinator?): %w", err)
	}
	fmt.Fprintf(w, "qbadmin: ring directory v%d: %d node(s), R=%d\n", dir.Version, len(dir.Nodes), dir.Replicas)

	// One control connection per node, tolerating the dead ones.
	conns := make(map[string]*wire.Client, len(dir.Nodes))
	defer func() {
		for _, nc := range conns {
			nc.Close()
		}
	}()
	for _, n := range dir.Nodes {
		status := "down"
		if nc, err := wire.Dial(n.Addr); err == nil {
			conns[n.ID] = nc
			status = "up"
		}
		coordinatorView := "down"
		if n.Alive {
			coordinatorView = "up"
		}
		fmt.Fprintf(w, "qbadmin:   node %-24s %s (coordinator sees %s)\n", n.ID, status, coordinatorView)
	}

	// Hosted namespaces: union across reachable nodes.
	names := make(map[string]struct{})
	for _, nc := range conns {
		hosted, err := nc.AdminList()
		if err != nil {
			continue
		}
		for _, ns := range hosted {
			names[ns] = struct{}{}
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(w, "qbadmin: no stores hosted anywhere in the ring")
		return nil
	}
	ordered := make([]string, 0, len(names))
	for ns := range names {
		ordered = append(ordered, ns)
	}
	sort.Strings(ordered)

	r := ring.Build(dir)
	for _, ns := range ordered {
		fmt.Fprintf(w, "qbadmin: store %q:\n", ns)
		placement := r.Placement(ns)
		infos := make([]wire.StoreInfo, len(placement))
		reached := make([]bool, len(placement))
		maxRows := -1
		for i, n := range placement {
			nc, ok := conns[n.ID]
			if !ok {
				continue
			}
			info, err := nc.StoreInfo(ns)
			if err != nil {
				continue
			}
			infos[i], reached[i] = info, true
			if info.Exists && info.EncRows > maxRows {
				maxRows = info.EncRows
			}
		}
		for i, n := range placement {
			role := "replica"
			if i == 0 {
				role = "primary"
			}
			switch {
			case !reached[i]:
				fmt.Fprintf(w, "qbadmin:   %-8s %-24s unreachable\n", role, n.ID)
			case !infos[i].Exists:
				fmt.Fprintf(w, "qbadmin:   %-8s %-24s MISSING\n", role, n.ID)
			default:
				mark := ""
				if infos[i].EncRows != maxRows {
					mark = "  DIVERGENT"
				}
				fmt.Fprintf(w, "qbadmin:   %-8s %-24s plain_tuples=%-8d enc_rows=%-8d ver=(%d,%d)%s\n",
					role, n.ID, infos[i].PlainTuples, infos[i].EncRows, infos[i].VerEpoch, infos[i].VerN, mark)
			}
		}
	}
	return nil
}

// workersLabel renders an effective admission bound (0 = unbounded).
func workersLabel(n int) string {
	if n <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%d", n)
}

// storeLabel names the namespace in output ("" is the default store).
func storeLabel(store string) string {
	if store == "" {
		return wire.DefaultStore
	}
	return store
}
