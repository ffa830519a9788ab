// Command qbcloud runs the untrusted public cloud as a standalone
// process: a registry of named store pairs — one clear-text store for a
// relation's non-sensitive partition plus one encrypted store for its
// sensitive partition per namespace — serving any number of owners over
// the wire protocol. One qbcloud hosts many relations: each client picks
// a namespace with repro.Config{Store: "name"} (empty selects "default"),
// and a vertical client transparently uses a pair of namespaces on one
// server.
//
// Usage:
//
//	qbcloud -addr :7040 [-state FILE [-snapshot-every DUR]] [-stats DUR]
//	        [-ring-token SECRET]
//
// Point a client at it with repro.Config{CloudAddr: "host:7040",
// Store: "tenant"}. The wire protocol is versioned (clients and server
// must speak the same generation; a pre-namespace client is refused with
// an explicit version-mismatch error) and multiplexed: every connection's
// requests are dispatched concurrently, at most GOMAXPROCS at a time per
// connection; namespaces only lock against themselves, so tenants don't
// otherwise contend.
//
// -state persists every namespace in one snapshot file (restored at
// start if present, saved on SIGINT/SIGTERM; a pre-namespace state file
// from a protocol-v1 server is refused); -snapshot-every additionally
// saves it in the background every DUR and requires -state. Every save is
// atomic (tmp + rename), so a crash
// mid-save never corrupts the state file. -stats prints per-store op/row
// counts every DUR (e.g. 30s); the same table is always printed on
// shutdown. The owner-side control plane (namespace stats/drop,
// owner-authenticated) is driven by cmd/qbadmin.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"repro/internal/wire"
)

func main() {
	addr := flag.String("addr", ":7040", "listen address")
	state := flag.String("state", "", "state file: restored at start if present, saved on SIGINT/SIGTERM (all namespaces)")
	snapshotEvery := flag.Duration("snapshot-every", 0, "also save -state at this interval, atomically (0 = only on shutdown; needs -state)")
	statsEvery := flag.Duration("stats", 0, "print per-store stats at this interval (0 = only on shutdown)")
	ringToken := flag.String("ring-token", "", "cluster secret authorising intra-ring transfer (snapshot restore, repair append); empty refuses those ops")
	flag.Parse()
	if err := run(*addr, *state, *snapshotEvery, *statsEvery, *ringToken); err != nil {
		fmt.Fprintln(os.Stderr, "qbcloud:", err)
		os.Exit(1)
	}
}

// printStats writes the per-namespace accounting table.
func printStats(cloud *wire.Cloud) {
	stats := cloud.Stats()
	if len(stats) == 0 {
		fmt.Println("qbcloud: no stores yet")
		return
	}
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("qbcloud: %d store(s):\n", len(names))
	for _, name := range names {
		s := stats[name]
		fmt.Printf("qbcloud:   store %-20s ops=%-8d plain_tuples=%-8d enc_rows=%d\n",
			name, s.Ops, s.PlainTuples, s.EncRows)
	}
}

func run(addr, state string, snapshotEvery, statsEvery time.Duration, ringToken string) error {
	if snapshotEvery > 0 && state == "" {
		return errors.New("-snapshot-every needs -state (there is no file to save to)")
	}
	cloud := wire.NewCloud()
	if ringToken != "" {
		cloud.SetRingToken([]byte(ringToken))
	}
	if state != "" {
		f, err := os.Open(state)
		switch {
		case err == nil:
			restoreErr := cloud.Restore(f)
			f.Close()
			if restoreErr != nil {
				return restoreErr
			}
			fmt.Printf("qbcloud: restored state from %s (%d stores)\n", state, len(cloud.StoreNames()))
		case errors.Is(err, fs.ErrNotExist):
			// Fresh start; the file will be created on shutdown.
		default:
			return err
		}
	}

	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("qbcloud: serving on %s\n", lis.Addr())

	if statsEvery > 0 {
		go func() {
			for range time.Tick(statsEvery) {
				printStats(cloud)
			}
		}()
	}
	if snapshotEvery > 0 {
		// Periodic background snapshots: every save is atomic (tmp +
		// rename inside SaveFile), so a SIGKILL mid-save leaves the
		// previous complete snapshot and a restart loses at most one
		// interval of writes — the crash-recovery story the reconnecting
		// clients lean on.
		go func() {
			for range time.Tick(snapshotEvery) {
				if err := cloud.SaveFile(state); err != nil {
					fmt.Fprintln(os.Stderr, "qbcloud: background snapshot:", err)
				} else {
					fmt.Printf("qbcloud: snapshot saved to %s\n", state)
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		printStats(cloud)
		if state != "" {
			if err := cloud.SaveFile(state); err != nil {
				fmt.Fprintln(os.Stderr, "qbcloud: saving state:", err)
				os.Exit(1)
			}
			fmt.Printf("qbcloud: state saved to %s\n", state)
		}
		os.Exit(0)
	}()
	return cloud.Serve(lis)
}
