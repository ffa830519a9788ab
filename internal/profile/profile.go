// Package profile is the -cpuprofile/-memprofile plumbing the command-line
// tools share (see docs/BENCHMARKS.md "Profiling workflow").
package profile

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start starts a CPU profile at cpuPath and arranges a heap profile at
// memPath, either optional ("" = off). The caller runs its work and then
// calls stop once: it flushes the CPU profile, writes the heap profile
// after a forced GC, and says what it wrote on stderr under prog's name.
func Start(prog, cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Fprintf(os.Stderr, "%s: wrote CPU profile %s\n", prog, cpuPath)
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: memprofile: %v\n", prog, err)
				return
			}
			runtime.GC() // up-to-date allocation data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "%s: memprofile: %v\n", prog, err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "%s: wrote heap profile %s\n", prog, memPath)
		}
	}, nil
}
