package main

import (
	"go/types"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// loadRepo type-checks the repository's own tree.
func loadRepo(t *testing.T) []*analysis.Package {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(strings.TrimSpace(string(out)))
	pkgs, err := analysis.NewLoader(root).Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestSuiteCleanOnRepo runs the full qbvet suite over the repository's
// own tree: the codebase must satisfy every invariant it preaches.
func TestSuiteCleanOnRepo(t *testing.T) {
	diags, err := analysis.Run(loadRepo(t), Suite)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestWireHasOneBackend pins the one-backend-stack collapse: exactly one
// type in internal/wire implements wire.Backend. Pooling, reconnection
// and namespacing are links beneath that one view, so a second
// implementation means flush-before-read, retry and error recording have
// been copied again.
func TestWireHasOneBackend(t *testing.T) {
	for _, p := range loadRepo(t) {
		if p.ImportPath != "repro/internal/wire" {
			continue
		}
		scope := p.Types.Scope()
		backend := scope.Lookup("Backend").Type().Underlying().(*types.Interface)
		var impls []string
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			if types.Implements(tn.Type(), backend) || types.Implements(types.NewPointer(tn.Type()), backend) {
				impls = append(impls, name)
			}
		}
		if want := []string{"StoreClient"}; !reflect.DeepEqual(impls, want) {
			t.Fatalf("wire.Backend implementations in internal/wire = %v, want %v", impls, want)
		}
		return
	}
	t.Fatal("repro/internal/wire not loaded")
}
