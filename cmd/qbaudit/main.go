// Command qbaudit generates the repository's audit summary
// (docs/AUDIT.md by default): the qbvet invariant findings over the whole
// tree, the non-test line count per package (the ROADMAP's north-star
// number, bench/ shown apart), plus per-package statement coverage from
// `go test -cover ./...`, with an optional coverage floor so CI fails when
// coverage regresses below the recorded baseline. The floor applies to the
// same set the line total does — everything outside bench/, which only
// [benchmark] changes may touch; bench/'s own row and the all-in figure
// are still printed.
//
// Usage:
//
//	qbaudit [-o file] [-floor pct]
//
// -o "" suppresses the report (floor check only); -o - writes to stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

func main() {
	out := flag.String("o", "docs/AUDIT.md", `report file ("" = none, "-" = stdout)`)
	floor := flag.Float64("floor", 0, "fail if statement coverage outside bench/ is below this percentage (0 disables)")
	flag.Parse()
	if err := run(*out, *floor); err != nil {
		fmt.Fprintln(os.Stderr, "qbaudit:", err)
		os.Exit(1)
	}
}

func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("locating module root: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a module")
	}
	return filepath.Dir(gomod), nil
}

// pkgCover is one package's coverage line from go test.
type pkgCover struct {
	pkg     string
	percent float64
	noTests bool
}

func run(outPath string, floor float64) error {
	root, err := moduleRoot()
	if err != nil {
		return err
	}

	// 1. qbvet findings over the whole tree, in-process.
	pkgs, err := analysis.NewLoader(root).Load("./...")
	if err != nil {
		return err
	}
	diags, err := analysis.Run(pkgs, suite.Analyzers)
	if err != nil {
		return err
	}

	// 2. per-package coverage plus a merged profile for the total.
	profile, err := os.CreateTemp("", "qbaudit-cover-*.out")
	if err != nil {
		return err
	}
	profile.Close()
	defer os.Remove(profile.Name())

	cmd := exec.Command("go", "test", "-count=1", "-coverprofile="+profile.Name(), "./...")
	cmd.Dir = root
	testOut, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go test -cover failed:\n%s", testOut)
	}
	covers := parseCoverLines(string(testOut))

	allIn, err := coverTotal(profile.Name())
	if err != nil {
		return err
	}
	gatedProfile := profile.Name() + ".nobench"
	defer os.Remove(gatedProfile)
	if err := withoutBench(profile.Name(), gatedProfile); err != nil {
		return err
	}
	total, err := coverTotal(gatedProfile)
	if err != nil {
		return err
	}

	// 3. render.
	if outPath != "" {
		report := render(diags, pkgs, covers, total, allIn)
		if outPath == "-" {
			fmt.Print(report)
		} else {
			if err := os.WriteFile(outPath, []byte(report), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "qbaudit: wrote %s (%d finding(s), coverage outside bench/ %.1f%%, with it %.1f%%)\n",
				outPath, len(diags), total, allIn)
		}
	}

	// 4. gates: open findings or a coverage regression fail the run.
	if len(diags) > 0 {
		return fmt.Errorf("%d open qbvet finding(s)", len(diags))
	}
	if floor > 0 && total < floor {
		return fmt.Errorf("statement coverage outside bench/ %.1f%% is below the %.1f%% floor", total, floor)
	}
	return nil
}

var covRe = regexp.MustCompile(`coverage: ([0-9.]+)% of statements`)

// parseCoverLines extracts per-package coverage from go test output. Three
// line shapes matter: "ok <pkg> <time> coverage: X% ...", a bare
// "<pkg> coverage: X% ..." for packages with no test binary of their own,
// and "? <pkg> [no test files]".
func parseCoverLines(out string) []pkgCover {
	var covers []pkgCover
	seen := make(map[string]bool)
	add := func(c pkgCover) {
		if c.pkg != "" && !seen[c.pkg] {
			seen[c.pkg] = true
			covers = append(covers, c)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch {
		case fields[0] == "ok" && len(fields) >= 2:
			if m := covRe.FindStringSubmatch(line); m != nil {
				pct, _ := strconv.ParseFloat(m[1], 64)
				add(pkgCover{pkg: fields[1], percent: pct})
			}
		case fields[0] == "?" && strings.Contains(line, "no test files") && len(fields) >= 2:
			add(pkgCover{pkg: fields[1], noTests: true})
		default:
			if m := covRe.FindStringSubmatch(line); m != nil {
				pct, _ := strconv.ParseFloat(m[1], 64)
				add(pkgCover{pkg: fields[0], percent: pct})
			}
		}
	}
	sort.Slice(covers, func(i, j int) bool { return covers[i].pkg < covers[j].pkg })
	return covers
}

// withoutBench copies the cover profile src to dst minus the blocks of
// bench/ files (profile lines start with the file's import path).
func withoutBench(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	var kept strings.Builder
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if !strings.HasPrefix(line, benchPkg+"/") {
			kept.WriteString(line)
		}
	}
	return os.WriteFile(dst, []byte(kept.String()), 0o600)
}

// coverTotal reads the "total: (statements) X%" line of cover -func over
// one profile.
func coverTotal(profile string) (float64, error) {
	funcOut, err := exec.Command("go", "tool", "cover", "-func="+profile).Output()
	if err != nil {
		return 0, fmt.Errorf("go tool cover: %v", err)
	}
	for _, line := range strings.Split(string(funcOut), "\n") {
		if !strings.HasPrefix(line, "total:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 3 {
			return strconv.ParseFloat(strings.TrimSuffix(fields[len(fields)-1], "%"), 64)
		}
	}
	return 0, fmt.Errorf("no total line in cover -func output")
}

// benchPkg is the frozen benchmark harness (BENCHMARK.json "paths"): its
// lines and its coverage are reported apart from the code the ROADMAP
// wants smaller and the floor gates.
const benchPkg = "repro/bench"

// renderLines writes the non-test line table. The loader parsed exactly
// each package's non-test files, so a file's line count is its wc -l.
func renderLines(b *strings.Builder, pkgs []*analysis.Package) {
	b.WriteString("## Non-test lines\n\n")
	b.WriteString("| Package | Lines |\n|---|---|\n")
	total, bench := 0, 0
	pkgs = append([]*analysis.Package(nil), pkgs...) // listing order is dependency order
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	for _, p := range pkgs {
		n := 0
		for _, f := range p.Files {
			n += p.Fset.File(f.Pos()).LineCount()
		}
		if p.ImportPath == benchPkg {
			bench = n
			continue
		}
		total += n
		fmt.Fprintf(b, "| %s | %d |\n", p.ImportPath, n)
	}
	fmt.Fprintf(b, "| **total outside bench/** | **%d** |\n", total)
	fmt.Fprintf(b, "| %s (frozen harness, not in the total) | %d |\n\n", benchPkg, bench)
}

func render(diags []analysis.Diagnostic, pkgs []*analysis.Package, covers []pkgCover, total, allIn float64) string {
	var b strings.Builder
	b.WriteString("# Audit\n\n")
	b.WriteString("Generated by `make audit` (cmd/qbaudit). Do not edit by hand.\n\n")

	b.WriteString("## Machine-checked invariants (qbvet)\n\n")
	if len(diags) == 0 {
		fmt.Fprintf(&b, "No open findings: the tree satisfies all %d machine-checked invariants.\n\n", len(suite.Analyzers))
	} else {
		b.WriteString("| Location | Analyzer | Finding |\n|---|---|---|\n")
		for _, d := range diags {
			fmt.Fprintf(&b, "| %s:%d | %s | %s |\n", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
		}
		b.WriteString("\n")
	}

	b.WriteString("| Analyzer | Invariant |\n|---|---|\n")
	for _, a := range suite.Analyzers {
		fmt.Fprintf(&b, "| %s | %s |\n", a.Name, a.Doc)
	}
	b.WriteString("\n")

	renderLines(&b, pkgs)

	b.WriteString("## Statement coverage\n\n")
	b.WriteString("| Package | Coverage |\n|---|---|\n")
	for _, c := range covers {
		if c.noTests {
			fmt.Fprintf(&b, "| %s | no test files |\n", c.pkg)
		} else {
			fmt.Fprintf(&b, "| %s | %.1f%% |\n", c.pkg, c.percent)
		}
	}
	fmt.Fprintf(&b, "| **total outside bench/ (statements; the floor applies here)** | **%.1f%%** |\n", total)
	fmt.Fprintf(&b, "| total with %s | %.1f%% |\n", benchPkg, allIn)
	return b.String()
}
