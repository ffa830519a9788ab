package loadgen

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/wire"
)

// chaosCloud hosts a wire.Cloud on a fixed loopback address inside the
// test process and can sever every connection and stop accepting — the
// in-process analogue of SIGKILLing qbcloud. The Cloud object (and so the
// stores) survives a kill, modelling a restart that lost no state; lossy
// snapshot recovery is cmd/qbload's territory (`make smoke`).
type chaosCloud struct {
	t    *testing.T
	cl   *wire.Cloud
	addr string

	mu    sync.Mutex
	lis   net.Listener
	conns map[net.Conn]bool
}

func newChaosCloud(t *testing.T, cl *wire.Cloud) *chaosCloud {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &chaosCloud{t: t, cl: cl, addr: lis.Addr().String(), conns: map[net.Conn]bool{}}
	s.serve(lis)
	t.Cleanup(s.kill)
	return s
}

func (s *chaosCloud) serve(lis net.Listener) {
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns[conn] = true
			s.mu.Unlock()
			go s.cl.ServeConn(conn)
		}
	}()
}

// kill severs every live connection and stops accepting new ones.
func (s *chaosCloud) kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis != nil {
		s.lis.Close()
		s.lis = nil
	}
	for c := range s.conns {
		c.Close()
	}
	s.conns = map[net.Conn]bool{}
}

// restart begins accepting again on the same address.
func (s *chaosCloud) restart() {
	s.t.Helper()
	var lis net.Listener
	var err error
	for i := 0; i < 50; i++ {
		if lis, err = net.Listen("tcp", s.addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		s.t.Errorf("rebinding %s: %v", s.addr, err)
		return
	}
	s.serve(lis)
}

// requireClean fails the test unless the run completed with zero errors
// and zero reference-check violations.
func requireClean(t *testing.T, res *Result, wantOps int64) {
	t.Helper()
	if res.Aggregate.Errors != 0 {
		t.Errorf("aggregate errors = %d, want 0", res.Aggregate.Errors)
	}
	if res.Aggregate.ChecksFailed != 0 {
		t.Errorf("checks failed = %d: %s", res.Aggregate.ChecksFailed, res.FirstCheckFailure)
	}
	if wantOps > 0 && res.Aggregate.Ops != wantOps {
		t.Errorf("aggregate ops = %d, want %d", res.Aggregate.Ops, wantOps)
	}
	if res.Aggregate.Ops > 0 {
		if res.Aggregate.P50 <= 0 || res.Aggregate.P99 < res.Aggregate.P50 || res.Aggregate.Max < res.Aggregate.P99 {
			t.Errorf("implausible percentiles: p50=%v p99=%v max=%v",
				res.Aggregate.P50, res.Aggregate.P99, res.Aggregate.Max)
		}
		if res.Aggregate.AchievedQPS <= 0 {
			t.Errorf("achieved QPS = %g, want > 0", res.Aggregate.AchievedQPS)
		}
	}
}

// TestRunInProcessCheckedMixedLoad: the correctness-under-load property
// against the in-process cloud — every read's result set is bounded by
// the sequential reference (baseline ± acknowledged concurrent writes)
// while two tenants × two loops run a Zipf-skewed 80/20 mix.
func TestRunInProcessCheckedMixedLoad(t *testing.T) {
	res, err := Run(Config{
		Tenants: 2, Clients: 2, Rate: 2000, Ops: 150,
		Gen:    GenConfig{ReadFraction: 0.8, ZipfS: 1.2},
		Tuples: 300, DistinctValues: 40, Alpha: 0.3, AssocFraction: 0.5,
		Check: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res, 2*2*150)
	for _, tr := range res.Tenants {
		if tr.Ops != 300 {
			t.Errorf("tenant %s ops = %d, want 300", tr.Tenant, tr.Ops)
		}
	}
}

// TestRunRemoteMultiClientCheckedLoad: the remote path with M=3 real
// repro.Clients per tenant — client 0 outsources, the others resume from
// its metadata — all checked against the reference, for both resumable
// store-backed techniques that support multi-client read-your-writes.
func TestRunRemoteMultiClientCheckedLoad(t *testing.T) {
	for _, tech := range []repro.Technique{repro.TechNoInd, repro.TechDetIndex} {
		t.Run(tech.String(), func(t *testing.T) {
			srv := newChaosCloud(t, wire.NewCloud())
			res, err := Run(Config{
				Tenants: 1, Clients: 3, Rate: 600, Ops: 50,
				Gen:    GenConfig{ReadFraction: 0.8, ZipfS: 1.3},
				Tuples: 300, DistinctValues: 40, Alpha: 0.4, AssocFraction: 0.5,
				Technique: tech, CloudAddr: srv.addr,
				StorePrefix: "multi-" + strings.ToLower(tech.String()),
				Check:       true, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			requireClean(t, res, 3*50)
		})
	}
}

// TestRunRejectsRemoteArxWrites: the config guard for the one technique
// whose owner-local token counters break multi-client read-your-writes.
func TestRunRejectsRemoteArxWrites(t *testing.T) {
	_, err := Run(Config{
		Tenants: 1, Clients: 2, Rate: 100, Ops: 1,
		Gen:       GenConfig{ReadFraction: 0.5},
		Technique: repro.TechArx, CloudAddr: "127.0.0.1:1",
	})
	if err == nil || !strings.Contains(err.Error(), "Arx") {
		t.Fatalf("err = %v, want Arx multi-client guard", err)
	}
}

// TestRunSurvivesChaosKillRestartWithChecks is the chaos half of the
// correctness-under-load property: mid-run, every connection to the
// cloud is severed and the listener goes away for ~150ms, then comes
// back on the same address. Reconnecting clients must ride through with
// zero errors AND zero reference-check violations — the kill window is
// measured (ops scheduled during it carry the queueing delay in their
// latency), not just survived.
func TestRunSurvivesChaosKillRestartWithChecks(t *testing.T) {
	srv := newChaosCloud(t, wire.NewCloud())

	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(200 * time.Millisecond)
		srv.kill()
		time.Sleep(150 * time.Millisecond)
		srv.restart()
	}()

	res, err := Run(Config{
		Tenants: 1, Clients: 2, Rate: 400, Ops: 120,
		Gen:    GenConfig{ReadFraction: 0.8, ZipfS: 1.2},
		Tuples: 300, DistinctValues: 40, Alpha: 0.4, AssocFraction: 0.5,
		CloudAddr: srv.addr, Reconnect: true,
		StorePrefix: "chaos", Check: true, Seed: 11,
	})
	<-killed
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res, 2*120)
	// The schedule is 600ms; the outage alone is 350ms of it. If the
	// run finished before the kill the test proved nothing.
	if res.Elapsed < 350*time.Millisecond {
		t.Errorf("run finished in %v, before the chaos window closed", res.Elapsed)
	}
}
