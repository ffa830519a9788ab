// Command qbload is the open-loop load harness: K simulated tenants ×
// M repro.Clients drive a qbcloud with a Zipf-skewed read/write mix on a
// paced arrival schedule, and the run reports p50/p95/p99/max latency
// plus achieved-vs-target QPS per tenant and in aggregate. Latency is
// measured from each op's *scheduled* arrival time, so queueing delay
// behind a saturated server (or a chaos outage) lands in the
// distribution instead of being coordinated-omitted away — see
// docs/BENCHMARKS.md for the methodology.
//
// Four targets, picked by flags:
//
//	(neither)         an in-process cloud per tenant — no sockets, the
//	                  protocol-free upper bound.
//	-addr HOST:PORT   an already-running qbcloud.
//	-qbcloud PATH     boot that binary on a loopback port (with -state
//	                  and -snapshot-every), drive it over TCP, and shut
//	                  it down after the run. Required for chaos.
//	-ring N           boot N qbcloud nodes plus a qbring coordinator
//	                  (-qbring PATH, -replicas R) and drive the ring:
//	                  clients route through placement, writes replicate,
//	                  reads fail over. Requires -qbcloud for the node
//	                  binary.
//
// Chaos: -kill-at D SIGKILLs the booted qbcloud D into the measured
// window — after waiting for a background snapshot that covers the
// outsourced data — and -restart-after D' reboots it from the state
// file on the same address D' later. Reconnecting clients ride through;
// the outage shows up as a latency spike, not as errors. A lossy
// snapshot restore cannot reconcile sensitive writes acknowledged after
// the last snapshot (by design), so chaos runs require -read-frac 1.
// In ring mode the victim is the first data node: the surviving
// replicas keep answering (failover, not reconnect-stall), and after
// the restart the coordinator's anti-entropy repair brings the victim
// back to row parity.
//
// -check cross-checks every read against the sequential reference
// bounds; -assert exits non-zero unless the run was clean (nonzero ops,
// zero errors, zero check failures, sane percentiles) — that pair is
// what `make smoke` runs in CI. When qbload booted a single qbcloud
// itself, -assert also shuts it down gracefully (after a chaos run that
// is the restarted process) and requires its per-store shutdown stats to
// name every tenant namespace and its final state save to succeed.
//
// Remote clients enable the owner-side version cache by default;
// -cache=false runs the pre-cache per-query-pull profile (the control arm
// of `make smoke`). -cpuprofile/-memprofile write pprof profiles of the
// whole run — see docs/BENCHMARKS.md.
//
// Usage:
//
//	qbload -tenants 4 -clients 4 -rate 500 -duration 10s
//	qbload -qbcloud bin/qbcloud -read-frac 1 -kill-at 2s -restart-after 500ms -check -assert
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/loadgen"
	"repro/internal/profile"
)

func main() {
	var (
		tenants  = flag.Int("tenants", 2, "simulated tenants (independent namespaces, K)")
		clients  = flag.Int("clients", 2, "clients per tenant (M; against a remote cloud these resume from the writer's metadata)")
		rate     = flag.Float64("rate", 200, "target open-loop arrival rate per tenant, ops/sec")
		duration = flag.Duration("duration", 5*time.Second, "measured window (ignored when -ops > 0)")
		ops      = flag.Int("ops", 0, "fixed op count per client instead of -duration")
		readFrac = flag.Float64("read-frac", 0.9, "fraction of ops that are point queries (the rest are inserts)")
		zipf     = flag.Float64("zipf", 1.2, "Zipf skew for value selection (<= 1 selects uniform)")
		tuples   = flag.Int("tuples", 2000, "tuples per tenant relation")
		values   = flag.Int("values", 100, "distinct indexed values per tenant")
		alpha    = flag.Float64("alpha", 0.4, "sensitive fraction of each relation")
		assoc    = flag.Float64("assoc", 0.5, "fraction of sensitive values that also keep non-sensitive tuples")
		techName = flag.String("technique", "noind", "sensitive-search technique: noind, detindex or arx")
		addr     = flag.String("addr", "", "drive an already-running qbcloud at this address")
		bin      = flag.String("qbcloud", "", "boot this qbcloud binary and drive it (required for chaos)")
		ringN    = flag.Int("ring", 0, "boot this many qbcloud nodes plus a qbring coordinator and drive the ring (needs -qbcloud and -qbring)")
		ringBin  = flag.String("qbring", "", "qbring binary for -ring mode")
		replicas = flag.Int("replicas", 2, "replication factor for -ring mode")
		workers  = flag.Int("store-workers", 0, "per-namespace dispatch bound for the booted qbcloud (0 = unbounded)")
		killAt   = flag.Duration("kill-at", 0, "SIGKILL the booted qbcloud this long into the measured window (0 = no chaos)")
		restart  = flag.Duration("restart-after", 500*time.Millisecond, "restart the killed qbcloud after this long")
		snapshot = flag.Duration("snapshot-every", 150*time.Millisecond, "background snapshot interval for the booted qbcloud")
		state    = flag.String("state", "", "state file for the booted qbcloud (default: a temp file)")
		maxIF    = flag.Int("max-inflight", 128, "max outstanding ops per client")
		seed     = flag.Uint64("seed", 1, "seed for datasets, op streams and bin permutations")
		check    = flag.Bool("check", false, "cross-check every read against the sequential reference bounds")
		assert   = flag.Bool("assert", false, "exit non-zero unless the run is clean (ops>0, errors=0, checks=0, sane percentiles)")
		cache    = flag.Bool("cache", true, "owner-side version cache (false = per-query column pull, the pre-cache profile)")
		cacheMB  = flag.Int("cache-mb", 0, "owner-side cache budget per client in MiB (0 = library default)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run here (pprof)")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit here (pprof)")
	)
	flag.Parse()

	stopProf, err := profile.Start("qbload", *cpuProf, *memProf)
	if err == nil {
		var tech repro.Technique
		tech, err = parseTechnique(*techName)
		if err == nil {
			err = run(runOpts{
				cfg: loadgen.Config{
					Tenants: *tenants, Clients: *clients, Rate: *rate,
					Duration: *duration, Ops: *ops,
					Gen:    loadgen.GenConfig{ReadFraction: *readFrac, ZipfS: *zipf},
					Tuples: *tuples, DistinctValues: *values,
					Alpha: *alpha, AssocFraction: *assoc,
					Technique: tech, CloudAddr: *addr,
					DisableCache: !*cache, CacheBytes: *cacheMB << 20,
					Seed: *seed, MaxInFlight: *maxIF, Check: *check,
					Logf: func(format string, args ...any) {
						fmt.Fprintf(os.Stderr, format+"\n", args...)
					},
				},
				bin: *bin, storeWorkers: *workers,
				ringN: *ringN, ringBin: *ringBin, replicas: *replicas,
				killAt: *killAt, restartAfter: *restart,
				snapshotEvery: *snapshot, state: *state,
				assert: *assert,
			})
		}
		stopProf()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qbload: FAIL:", err)
		os.Exit(1)
	}
}

func parseTechnique(name string) (repro.Technique, error) {
	switch strings.ToLower(name) {
	case "noind":
		return repro.TechNoInd, nil
	case "detindex":
		return repro.TechDetIndex, nil
	case "arx":
		return repro.TechArx, nil
	}
	return 0, fmt.Errorf("unknown -technique %q (want noind, detindex or arx)", name)
}

type runOpts struct {
	cfg           loadgen.Config
	bin           string
	storeWorkers  int
	ringN         int
	ringBin       string
	replicas      int
	killAt        time.Duration
	restartAfter  time.Duration
	snapshotEvery time.Duration
	state         string
	assert        bool
}

// ringToken is the intra-ring transfer secret the harness configures on
// every booted node and the coordinator; its value is irrelevant as long
// as they match.
const ringToken = "qbload-ring-token"

func run(o runOpts) error {
	if o.killAt > 0 {
		if o.bin == "" {
			return fmt.Errorf("-kill-at needs -qbcloud (chaos owns the server process)")
		}
		if o.cfg.Gen.ReadFraction < 1 {
			// The snapshot restore is lossy by design: a sensitive write
			// acknowledged after the last snapshot cannot be reconciled
			// after the crash, so a write-bearing chaos run would report
			// client-side failures that are really the harness's fault.
			return fmt.Errorf("-kill-at requires -read-frac 1 (snapshot restore is lossy for post-snapshot writes)")
		}
	}
	if o.bin != "" && o.cfg.CloudAddr != "" {
		return fmt.Errorf("-addr and -qbcloud are mutually exclusive")
	}
	if o.ringN > 0 {
		if o.bin == "" || o.ringBin == "" {
			return fmt.Errorf("-ring needs both -qbcloud (node binary) and -qbring (coordinator binary)")
		}
		if o.cfg.CloudAddr != "" {
			return fmt.Errorf("-addr and -ring are mutually exclusive")
		}
	}

	// Boot the server processes if asked, always with state files so a
	// chaos restart has something to restore. victim is the process
	// -kill-at targets; victimState its state file.
	var (
		srv         *loadgen.CloudProc
		victim      *loadgen.CloudProc
		victimState string
		restartArgs []string
	)
	if o.bin != "" && o.ringN == 0 {
		if o.state == "" {
			dir, err := os.MkdirTemp("", "qbload-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			o.state = filepath.Join(dir, "state.gob")
		}
		extra := []string{
			"-state", o.state,
			"-snapshot-every", o.snapshotEvery.String(),
		}
		if o.storeWorkers > 0 {
			extra = append(extra, "-store-workers", fmt.Sprint(o.storeWorkers))
		}
		var err error
		if srv, err = loadgen.BootCloud(o.bin, extra...); err != nil {
			return err
		}
		defer srv.Kill()
		o.cfg.CloudAddr = srv.Addr
		o.cfg.Reconnect = true // survive chaos; free otherwise
		victim, victimState, restartArgs = srv, o.state, extra
		fmt.Fprintf(os.Stderr, "qbload: qbcloud up on %s (state=%s)\n", srv.Addr, o.state)
	}
	if o.ringN > 0 {
		dir, err := os.MkdirTemp("", "qbload-ring-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		addrs := make([]string, 0, o.ringN)
		for i := 0; i < o.ringN; i++ {
			state := filepath.Join(dir, fmt.Sprintf("node%d.gob", i))
			extra := []string{
				"-state", state,
				"-snapshot-every", o.snapshotEvery.String(),
				"-ring-token", ringToken,
			}
			if o.storeWorkers > 0 {
				extra = append(extra, "-store-workers", fmt.Sprint(o.storeWorkers))
			}
			n, err := loadgen.BootCloud(o.bin, extra...)
			if err != nil {
				return err // the nodes already up die by their deferred Kill
			}
			defer n.Kill()
			addrs = append(addrs, n.Addr)
			if i == 0 {
				// Chaos kills the first data node: its replicas answer
				// through the outage, and repair catches it up after the
				// restart.
				victim, victimState, restartArgs = n, state, extra
			}
		}
		ring, err := loadgen.BootRing(o.ringBin,
			"-nodes", strings.Join(addrs, ","),
			"-replicas", fmt.Sprint(o.replicas),
			"-ring-token", ringToken,
			"-health-every", "100ms",
			"-repair-every", "250ms",
		)
		if err != nil {
			return err
		}
		defer ring.Kill()
		o.cfg.RingAddr = ring.Addr
		fmt.Fprintf(os.Stderr, "qbload: ring up on %s (%d nodes: %s, R=%d)\n",
			ring.Addr, o.ringN, strings.Join(addrs, " "), o.replicas)
	}

	// The chaos controller needs to know when setup (outsourcing) ends
	// and the measured window begins; the runner logs one ready line per
	// tenant, so the Logf wrapper counts them.
	loadStart := make(chan time.Time, 1)
	if o.killAt > 0 {
		innerLogf, ready := o.cfg.Logf, 0
		o.cfg.Logf = func(format string, args ...any) {
			innerLogf(format, args...)
			if strings.Contains(format, "ready") {
				if ready++; ready == o.cfg.Tenants {
					loadStart <- time.Now()
				}
			}
		}
	}

	// Every return path below waits for the chaos goroutine and kills what
	// it rebooted: a run that fails during the outage must not leave a
	// restarted qbcloud holding its port after the harness exits.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		restarted *loadgen.CloudProc // set, with chaosErr, before chaosDone closes
		chaosErr  error
	)
	chaosDone := make(chan struct{})
	if o.killAt > 0 {
		go func() {
			defer close(chaosDone)
			restarted, chaosErr = chaos(ctx, o, victim, victimState, restartArgs, loadStart)
		}()
		defer func() {
			cancel()
			<-chaosDone
			if restarted != nil {
				restarted.Kill()
			}
		}()
	}

	res, err := loadgen.Run(o.cfg)
	if err != nil {
		return err
	}
	if o.killAt > 0 {
		<-chaosDone
		if chaosErr != nil {
			return chaosErr
		}
		if srv != nil {
			srv = restarted // the single node now serving
		}
	}

	res.WriteTable(os.Stdout)
	if !o.assert {
		return nil
	}
	if err := assertClean(res); err != nil {
		return err
	}
	if srv != nil {
		return assertShutdownStats(srv, res)
	}
	return nil
}

// sleepCtx sleeps for d, or returns ctx's error early once it is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// chaos SIGKILLs the victim qbcloud killAt into the measured window —
// but never before a background snapshot has covered the outsourced
// datasets — and reboots it from its state file on the same address
// (with restartArgs carrying the victim's original flags, e.g. the ring
// token in ring mode). It gives up at its next wait once ctx is
// cancelled, which is how a failed run stops it from rebooting a server
// nobody will tear down.
func chaos(ctx context.Context, o runOpts, victim *loadgen.CloudProc, state string, restartArgs []string, loadStart <-chan time.Time) (*loadgen.CloudProc, error) {
	var start time.Time
	select {
	case start = <-loadStart:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(2 * time.Minute):
		return nil, fmt.Errorf("chaos: tenants not ready within 2m")
	}

	// A snapshot whose mtime is at least one full interval past the
	// setup point must have *started* after setup finished, so it
	// contains every outsourced tuple.
	covered := start.Add(o.snapshotEvery + 50*time.Millisecond)
	for {
		if fi, err := os.Stat(state); err == nil && fi.ModTime().After(covered) {
			break
		}
		if time.Since(start) > 30*time.Second {
			return nil, fmt.Errorf("chaos: no post-setup snapshot of %s within 30s", state)
		}
		if err := sleepCtx(ctx, 25*time.Millisecond); err != nil {
			return nil, err
		}
	}

	if err := sleepCtx(ctx, time.Until(start.Add(o.killAt))); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "qbload: chaos: SIGKILL qbcloud %s %v into the window\n",
		victim.Addr, time.Since(start).Round(time.Millisecond))
	if err := victim.Kill(); err != nil {
		return nil, err
	}
	if err := victim.WaitExit(10 * time.Second); err != nil {
		return nil, err
	}

	if err := sleepCtx(ctx, o.restartAfter); err != nil {
		return nil, err
	}
	srv2, err := loadgen.BootCloud(o.bin, append([]string{"-addr", victim.Addr}, restartArgs...)...)
	if err != nil {
		return nil, fmt.Errorf("chaos: restarting qbcloud: %w", err)
	}
	if !strings.Contains(srv2.Output(), "restored state") {
		err := fmt.Errorf("chaos: restarted qbcloud did not restore state:\n%s", srv2.Output())
		return srv2, err
	}
	fmt.Fprintf(os.Stderr, "qbload: chaos: qbcloud restarted on %s from %s\n", srv2.Addr, state)
	return srv2, nil
}

// assertShutdownStats is the -assert gate's last step when qbload owns a
// single qbcloud: a graceful shutdown must print the per-store accounting
// table with every tenant namespace of the run in it, and the final state
// save must succeed. After a chaos run srv is the restarted process, so
// this also checks that the restored namespaces are the ones served.
func assertShutdownStats(srv *loadgen.CloudProc, res *loadgen.Result) error {
	if err := srv.Stop(); err != nil {
		return fmt.Errorf("assert: stopping qbcloud: %w", err)
	}
	if err := srv.WaitExit(10 * time.Second); err != nil {
		return fmt.Errorf("assert: %w", err)
	}
	out := srv.Output()
	for _, t := range res.Tenants {
		if !strings.Contains(out, "qbcloud:   store "+t.Store+" ") {
			return fmt.Errorf("assert: qbcloud shutdown stats missing namespace %q:\n%s", t.Store, out)
		}
	}
	if !strings.Contains(out, "qbcloud: state saved") {
		return fmt.Errorf("assert: qbcloud did not save its state on shutdown:\n%s", out)
	}
	fmt.Fprintf(os.Stderr, "qbload: qbcloud shutdown stats name all %d tenant namespaces, state saved\n", len(res.Tenants))
	return nil
}

// assertClean is the -assert gate: `make smoke` fails the build on any
// op error, any reference-check violation, or a degenerate
// latency distribution.
func assertClean(res *loadgen.Result) error {
	a := res.Aggregate
	switch {
	case a.Ops == 0:
		return fmt.Errorf("assert: no ops completed")
	case a.Errors != 0:
		return fmt.Errorf("assert: %d op errors", a.Errors)
	case a.ChecksFailed != 0:
		return fmt.Errorf("assert: %d reference-check failures, first: %s", a.ChecksFailed, res.FirstCheckFailure)
	case a.AchievedQPS <= 0:
		return fmt.Errorf("assert: achieved QPS = %g", a.AchievedQPS)
	case a.P50 <= 0 || a.P99 < a.P50 || a.Max < a.P99:
		return fmt.Errorf("assert: implausible percentiles p50=%v p99=%v max=%v", a.P50, a.P99, a.Max)
	}
	return nil
}
