package main

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/ring"
	"repro/internal/wire"
	"repro/internal/workload"
)

// serveCloud runs cl on a loopback listener for the rest of the test and
// returns its address.
func serveCloud(t *testing.T, cl *wire.Cloud) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = cl.Serve(lis) }()
	t.Cleanup(func() { lis.Close() })
	return lis.Addr().String()
}

// TestAdminCommands drives every qbcloud-facing command of the CLI against
// a live in-process cloud hosting two tenants with different master keys.
func TestAdminCommands(t *testing.T) {
	addr := serveCloud(t, wire.NewCloud())

	const tenantKey, scratchKey = "tenant master key", "scratch master key"
	emp := workload.Employee()
	outsource := func(key, store string) *repro.Client {
		t.Helper()
		var seed uint64 = 7
		c, err := repro.NewClient(repro.Config{
			MasterKey: []byte(key), Attr: "EId", Seed: &seed,
			CloudAddr: addr, Store: store,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := c.Outsource(emp.Clone(), workload.EmployeeSensitive); err != nil {
			t.Fatal(err)
		}
		return c
	}
	tenant := outsource(tenantKey, "tenant")
	outsource(scratchKey, "scratch")

	queries := []string{"E101", "E259", "E152", "E000"}
	answers := func() [][]repro.Tuple {
		t.Helper()
		var all [][]repro.Tuple
		for _, eid := range queries {
			got, err := tenant.Query(repro.Str(eid))
			if err != nil {
				t.Fatalf("Query(%s): %v", eid, err)
			}
			all = append(all, got)
		}
		return all
	}
	before := answers()

	// admin runs one command and returns what it printed.
	admin := func(master, store, cmd string) (string, error) {
		var out bytes.Buffer
		err := run(&out, addr, master, store, cmd)
		return out.String(), err
	}
	// ok additionally requires success and the given substrings.
	ok := func(master, store, cmd string, want ...string) {
		t.Helper()
		out, err := admin(master, store, cmd)
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		for _, w := range want {
			if !strings.Contains(out, w) {
				t.Errorf("%s printed %q, want it to contain %q", cmd, out, w)
			}
		}
	}

	ok("", "", "ping", "is alive")
	ok("", "", "list", "tenant\n", "scratch\n")
	ok(tenantKey, "tenant", "stats", `store "tenant"`, "enc_rows=", "cond_hits=")
	if out, _ := admin(tenantKey, "tenant", "stats"); strings.Contains(out, "workers=") {
		t.Errorf("stats printed %q: the cloud has no per-namespace admission bound to report", out)
	}

	// The cloud refuses another owner's key and keeps the namespace.
	if out, err := admin(tenantKey, "scratch", "drop"); err == nil {
		t.Fatalf("drop with the wrong master key succeeded: %q", out)
	}
	ok("", "", "list", "scratch\n")

	ok(scratchKey, "scratch", "drop", `store "scratch" dropped`)
	out, err := admin("", "", "list")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "scratch") || !strings.Contains(out, "tenant\n") {
		t.Errorf("list after drop = %q, want tenant only", out)
	}
	// The sibling still answers as before.
	if after := answers(); !reflect.DeepEqual(after, before) {
		t.Errorf("tenant answers changed after admin commands:\n got %v\nwant %v", after, before)
	}

	for _, cmd := range []string{"stats", "drop"} {
		if _, err := admin("", "tenant", cmd); err == nil || !strings.Contains(err.Error(), "requires -master") {
			t.Errorf("%s without -master: err = %v, want a -master complaint", cmd, err)
		}
	}
	// set-workers went with the per-namespace admission bound, compact
	// with the compact op.
	for _, cmd := range []string{"frobnicate", "set-workers", "compact"} {
		if _, err := admin(tenantKey, "tenant", cmd); err == nil || !strings.Contains(err.Error(), "unknown command") {
			t.Errorf("%s: err = %v, want an unknown command", cmd, err)
		}
	}
}

// TestRingCommand drives `qbadmin ring` against an in-process qbring
// deployment — three nodes sharing a ring token and a coordinator serving
// their directory, as qbring does — after one tenant outsourced through
// it, and against a plain qbcloud, which is no coordinator.
func TestRingCommand(t *testing.T) {
	tok := []byte("qbadmin ring token")
	nodes := make([]string, 3)
	for i := range nodes {
		cl := wire.NewCloud()
		cl.SetRingToken(tok)
		nodes[i] = serveCloud(t, cl)
	}
	co, err := ring.New(ring.Config{Nodes: nodes, Replicas: 2, RingToken: tok})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Stop)
	dir := wire.NewCloud()
	dir.SetRingDirectory(co.DirectoryBlob)
	coAddr := serveCloud(t, dir)

	var seed uint64 = 11
	c, err := repro.NewClient(repro.Config{
		MasterKey: []byte("ring tenant key"), Attr: "EId", Seed: &seed, Ring: coAddr, Store: "tenant",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Outsource(workload.Employee(), workload.EmployeeSensitive); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run(&out, coAddr, "", "", "ring"); err != nil {
		t.Fatalf("ring: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "qbadmin: ring directory v") || !strings.Contains(got, ": 3 node(s), R=2\n") {
		t.Errorf("ring printed no directory line:\n%s", got)
	}
	if n := strings.Count(got, " up (coordinator sees up)\n"); n != 3 {
		t.Errorf("ring shows %d up nodes, want 3:\n%s", n, got)
	}
	if !strings.Contains(got, `qbadmin: store "tenant":`) || strings.Contains(got, "DIVERGENT") {
		t.Errorf("ring store section missing or divergent:\n%s", got)
	}
	roles := map[string]int{}
	for _, line := range strings.Split(got, "\n") {
		for _, role := range []string{"primary", "replica"} {
			if strings.HasPrefix(line, "qbadmin:   "+role+" ") {
				roles[role]++
				if !strings.Contains(line, "plain_tuples=") || !strings.Contains(line, "enc_rows=") {
					t.Errorf("%s row without row counts: %q", role, line)
				}
			}
		}
	}
	if roles["primary"] != 1 || roles["replica"] != 1 {
		t.Errorf("ring placement rows %v, want one primary and one replica:\n%s", roles, got)
	}

	if err := run(io.Discard, nodes[0], "", "", "ring"); err == nil ||
		!strings.Contains(err.Error(), "is -addr a qbring coordinator?") {
		t.Errorf("ring against a plain qbcloud: err = %v", err)
	}
}
