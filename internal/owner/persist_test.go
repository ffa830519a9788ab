package owner

import (
	"bytes"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/crypto"
	"repro/internal/relation"
	"repro/internal/technique"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestOwnerRestartOverRemoteCloud is the full persistence story: outsource
// to a remote cloud, save the owner metadata, simulate an owner restart
// (fresh Owner with the same keys), load the metadata, and query without
// re-uploading anything.
func TestOwnerRestartOverRemoteCloud(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() { _ = wire.NewCloud().Serve(lis) }()

	ks := crypto.DeriveKeys([]byte("restart"))
	dial := func() *wire.StoreClient {
		c, err := wire.Dial(lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c.WithStore(wire.DefaultStore)
	}

	// Session 1: outsource and save.
	conn1 := dial()
	tech1, err := technique.NewNoIndOn(ks, conn1)
	if err != nil {
		t.Fatal(err)
	}
	o1 := New(tech1, "EId")
	o1.SetCloudBackend(conn1)
	emp := workload.Employee()
	if err := o1.Outsource(emp.Clone(), workload.EmployeeSensitive, seededOpts(66)); err != nil {
		t.Fatal(err)
	}
	if err := conn1.Flush(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o1.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}

	// Session 2: a brand-new owner process resumes from the metadata.
	conn2 := dial()
	tech2, err := technique.NewNoIndOn(ks, conn2)
	if err != nil {
		t.Fatal(err)
	}
	o2 := New(tech2, "EId")
	if err := o2.LoadMetadata(bytes.NewReader(buf.Bytes()), conn2); err != nil {
		t.Fatal(err)
	}
	for _, eid := range []string{"E101", "E259", "E199", "E152"} {
		got, _, err := o2.Query(relation.Str(eid))
		if err != nil {
			t.Fatalf("restarted Query(%s): %v", eid, err)
		}
		want, _ := emp.Select("EId", relation.Str(eid))
		if !reflect.DeepEqual(relation.IDs(got), relation.IDs(want)) {
			t.Errorf("restarted Query(%s) = %v, want %v", eid, relation.IDs(got), relation.IDs(want))
		}
	}
	// Inserts keep working after restart.
	nt := relation.Tuple{ID: 300, Values: []relation.Value{
		relation.Str("E321"), relation.Str("New"), relation.Str("Hire"),
		relation.Int(321), relation.Int(2), relation.Str("Design"),
	}}
	if err := o2.Insert(nt, false); err != nil {
		t.Fatal(err)
	}
	got, _, err := o2.Query(relation.Str("E321"))
	if err != nil || len(got) != 1 {
		t.Fatalf("post-restart insert: %v, %v", got, err)
	}
}

func TestSaveMetadataBeforeOutsource(t *testing.T) {
	o := New(newNoInd(t), "EId")
	var buf bytes.Buffer
	if err := o.SaveMetadata(&buf); err != ErrNotOutsourced {
		t.Fatalf("err = %v", err)
	}
}

func TestLoadMetadataAttrMismatch(t *testing.T) {
	o1, _ := employeeOwner(t)
	var buf bytes.Buffer
	if err := o1.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}
	o2 := New(newNoInd(t), "LastName")
	if err := o2.LoadMetadata(&buf, nil); err == nil || !strings.Contains(err.Error(), "attribute") {
		t.Fatalf("err = %v, want attribute mismatch", err)
	}
}

func TestLoadMetadataGarbage(t *testing.T) {
	o := New(newNoInd(t), "EId")
	if err := o.LoadMetadata(strings.NewReader("junk"), nil); err == nil {
		t.Fatal("garbage metadata accepted")
	}
}
