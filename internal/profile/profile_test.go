package profile

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartWritesBothProfiles: stop leaves a non-empty CPU profile and
// heap profile behind, and both paths are optional.
func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pb.gz"), filepath.Join(dir, "mem.pb.gz")
	stop, err := Start("profile.test", cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, %v", p, fi, err)
		}
	}

	stop, err = Start("profile.test", "", "")
	if err != nil {
		t.Fatal(err)
	}
	stop()
}

// TestStartFailsOnUnwritablePath: a CPU profile that cannot be created is
// an error before any work runs, not a message after it.
func TestStartFailsOnUnwritablePath(t *testing.T) {
	if _, err := Start("profile.test", filepath.Join(t.TempDir(), "missing", "cpu"), ""); err == nil {
		t.Fatal("Start created a profile in a directory that does not exist")
	}
}
