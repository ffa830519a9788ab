package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestParseCoverLines: the three line shapes of `go test -cover` output
// yield one row per package, sorted, the first report of a package
// winning; other lines are ignored.
func TestParseCoverLines(t *testing.T) {
	out := strings.Join([]string{
		"ok  \trepro/internal/wire\t0.512s\tcoverage: 81.3% of statements",
		"\trepro/cmd/qbring\t\tcoverage: 0.0% of statements",
		"?   \trepro/examples/quickstart\t[no test files]",
		"ok  \trepro\t2.1s\tcoverage: 70.0% of statements",
		"ok  \trepro/internal/wire\t0.6s\tcoverage: 12.0% of statements",
		"--- FAIL: TestSomething (0.00s)",
		"",
	}, "\n")
	want := []pkgCover{
		{pkg: "repro", percent: 70},
		{pkg: "repro/cmd/qbring"},
		{pkg: "repro/examples/quickstart", noTests: true},
		{pkg: "repro/internal/wire", percent: 81.3},
	}
	if got := parseCoverLines(out); !reflect.DeepEqual(got, want) {
		t.Fatalf("parseCoverLines = %+v, want %+v", got, want)
	}
}

// TestWithoutBench: the gated profile keeps the mode line and every block
// outside bench/, including a package whose path merely starts with
// "bench".
func TestWithoutBench(t *testing.T) {
	dir := t.TempDir()
	src, dst := filepath.Join(dir, "all.out"), filepath.Join(dir, "gated.out")
	profile := "mode: set\n" +
		"repro/bench/run.go:10.2,12.3 2 1\n" +
		"repro/client.go:5.1,6.2 1 0\n" +
		"repro/bench/stats.go:1.1,2.2 1 1\n" +
		"repro/benchmarks/x.go:3.1,4.2 1 1\n"
	if err := os.WriteFile(src, []byte(profile), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := withoutBench(src, dst); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	want := "mode: set\nrepro/client.go:5.1,6.2 1 0\nrepro/benchmarks/x.go:3.1,4.2 1 1\n"
	if string(got) != want {
		t.Fatalf("gated profile =\n%s\nwant\n%s", got, want)
	}
}

// TestCoverTotal: the total is `go tool cover -func`'s statement share.
// The profile's two blocks lie inside withoutBench's body: three covered
// statements and one not.
func TestCoverTotal(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var body *ast.BlockStmt
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "withoutBench" {
			body = fn.Body
		}
	}
	if body == nil {
		t.Fatal("withoutBench not found in main.go")
	}
	from, to := fset.Position(body.Lbrace).Line+1, fset.Position(body.Rbrace).Line-1
	profile := filepath.Join(t.TempDir(), "cover.out")
	blocks := fmt.Sprintf("mode: set\nrepro/cmd/qbaudit/main.go:%d.2,%d.3 3 1\nrepro/cmd/qbaudit/main.go:%d.2,%d.3 1 0\n",
		from, from+1, to-1, to)
	if err := os.WriteFile(profile, []byte(blocks), 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := coverTotal(profile)
	if err != nil {
		t.Fatal(err)
	}
	if got != 75 {
		t.Fatalf("coverTotal = %.1f%%, want 75.0%%", got)
	}
}

// TestRenderLinesKeepsBenchApart: the "Non-test lines" table lists every
// package but bench/ sorted by import path with its line count, totals
// them, and prints bench/ after the total and outside it.
func TestRenderLinesKeepsBenchApart(t *testing.T) {
	fset := token.NewFileSet()
	pkg := func(path, src string) *analysis.Package {
		f, err := parser.ParseFile(fset, path+"/x.go", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		return &analysis.Package{ImportPath: path, Fset: fset, Files: []*ast.File{f}}
	}
	pkgs := []*analysis.Package{
		pkg("repro/internal/b", "package b\n\nvar x = 1\n"),
		pkg(benchPkg, "package main\n\nfunc main() {}\n\n// five\n"),
		pkg("repro/cmd/a", "package main\n"),
	}
	var b strings.Builder
	renderLines(&b, pkgs)
	want := "## Non-test lines\n\n| Package | Lines |\n|---|---|\n" +
		"| repro/cmd/a | 1 |\n" +
		"| repro/internal/b | 3 |\n" +
		"| **total outside bench/** | **4** |\n" +
		"| repro/bench (frozen harness, not in the total) | 5 |\n\n"
	if b.String() != want {
		t.Fatalf("line table =\n%s\nwant\n%s", b.String(), want)
	}
	if pkgs[0].ImportPath != "repro/internal/b" {
		t.Fatal("renderLines reordered its caller's slice")
	}
}
