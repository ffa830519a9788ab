package main

import (
	"net"
	"strings"
	"testing"
	"time"
)

// TestSnapshotEveryNeedsState: -snapshot-every without -state has no file
// to save to, so run refuses it before it listens. The address handed to
// run is already taken: had run reached net.Listen it would report that
// instead.
func TestSnapshotEveryNeedsState(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()

	err = run(taken.Addr().String(), "", time.Second, 0, "")
	if err == nil || !strings.Contains(err.Error(), "-snapshot-every needs -state") {
		t.Fatalf("run(-snapshot-every without -state) = %v, want the -state refusal", err)
	}
}
