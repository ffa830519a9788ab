package main

import (
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

// outDir receives everything a run leaves behind: the server binaries
// built from the current tree, result files and trace dumps. The root
// .gitignore names it.
const outDir = "bench/out"

// buildServers compiles qbcloud and qbring from the tree the benchmark
// itself was built from, so a run always measures the checkout it sits in.
func buildServers() (cloudBin, ringBin string, err error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return "", "", fmt.Errorf("run from the repository root (go run ./bench): %w", err)
	}
	binDir := filepath.Join(outDir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", "", err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/qbcloud", "./cmd/qbring")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("building servers: %w\n%s", err, out)
	}
	return filepath.Join(binDir, "qbcloud"), filepath.Join(binDir, "qbring"), nil
}

// child is one booted server process. loadgen.CloudProc hides the pid,
// so it is recovered by diffing this process's children around the boot.
type child struct {
	name string
	pid  int
	proc *loadgen.CloudProc
}

// live tracks every running child so that an interrupt, a watchdog
// timeout or a fatal error can kill them all before the process exits.
var live struct {
	mu    sync.Mutex
	procs map[*loadgen.CloudProc]bool
}

func killAllChildren() {
	live.mu.Lock()
	defer live.mu.Unlock()
	for p := range live.procs {
		p.Kill()
		p.WaitExit(5 * time.Second)
	}
	live.procs = nil
}

// guardChildren installs the SIGINT/SIGTERM handler and a watchdog: a run
// that outlives limit is treated like an interrupt. Either way every child
// is killed and reaped before the non-zero exit.
func guardChildren(limit time.Duration) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		reason := "interrupted"
		select {
		case <-sig:
		case <-time.After(limit):
			reason = fmt.Sprintf("exceeded the %v run limit", limit)
		}
		killAllChildren()
		fmt.Fprintln(os.Stderr, "bench:", reason)
		os.Exit(2)
	}()
}

// childPIDs lists the direct children of this process from /proc.
func childPIDs() map[int]bool {
	out := map[int]bool{}
	self := os.Getpid()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return out
	}
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if ppid, ok := statusField(pid, "PPid:"); ok && ppid == self {
			out[pid] = true
		}
	}
	return out
}

// statusField reads one integer field (PPid, VmHWM in kB, ...) of
// /proc/<pid>/status.
func statusField(pid int, field string) (int, bool) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			n, err := strconv.Atoi(f[0])
			return n, err == nil
		}
	}
	return 0, false
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB(pid int) float64 {
	kb, _ := statusField(pid, "VmHWM:")
	return float64(kb) / 1024
}

// heldRSSMiB is what this process keeps resident once garbage is
// collected and freed pages are returned: its live data, not the
// high-water mark of whatever the collector had not yet got to.
func heldRSSMiB() float64 {
	debug.FreeOSMemory() // collects first
	kb, _ := statusField(os.Getpid(), "VmRSS:")
	return float64(kb) / 1024
}

func boot(name, bin string, args ...string) (*child, error) {
	before := childPIDs()
	proc, err := loadgen.BootCloud(bin, args...)
	if err != nil {
		return nil, err
	}
	live.mu.Lock()
	if live.procs == nil {
		live.procs = map[*loadgen.CloudProc]bool{}
	}
	live.procs[proc] = true
	live.mu.Unlock()
	c := &child{name: name, proc: proc}
	for pid := range childPIDs() {
		if !before[pid] {
			if comm, _ := os.ReadFile(fmt.Sprintf("/proc/%d/comm", pid)); strings.TrimSpace(string(comm)) == filepath.Base(bin) {
				c.pid = pid
			}
		}
	}
	if c.pid == 0 {
		c.stop()
		return nil, fmt.Errorf("booted %s but could not find its pid under /proc", name)
	}
	return c, nil
}

// stop kills the child and waits for it to be reaped. The servers run
// without a state file, so there is no shutdown snapshot to wait for.
func (c *child) stop() {
	c.proc.Kill()
	c.proc.WaitExit(5 * time.Second)
	live.mu.Lock()
	delete(live.procs, c.proc)
	live.mu.Unlock()
}

// stack is one booted deployment: a single qbcloud, or three qbcloud
// nodes behind a qbring coordinator.
type stack struct {
	children []*child
	// cloudAddr or ringAddr is what repro.Config dials; exactly one is set.
	cloudAddr, ringAddr string
	// nodeAddrs are the data nodes, in boot order.
	nodeAddrs []string
}

func bootStack(w workloadSpec, cloudBin, ringBin string) (*stack, error) {
	s := &stack{}
	if !w.ring {
		c, err := boot("qbcloud", cloudBin)
		if err != nil {
			return nil, err
		}
		s.children = append(s.children, c)
		s.cloudAddr = c.proc.Addr
		s.nodeAddrs = []string{c.proc.Addr}
		return s, nil
	}
	for i := 0; i < ringNodes; i++ {
		c, err := boot(fmt.Sprintf("qbcloud%d", i), cloudBin, "-ring-token", ringToken)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.children = append(s.children, c)
		s.nodeAddrs = append(s.nodeAddrs, c.proc.Addr)
	}
	c, err := boot("qbring", ringBin,
		"-nodes", strings.Join(s.nodeAddrs, ","),
		"-replicas", strconv.Itoa(ringReplicas),
		"-ring-token", ringToken)
	if err != nil {
		s.stop()
		return nil, err
	}
	s.children = append(s.children, c)
	s.ringAddr = c.proc.Addr
	return s, nil
}

// peakRSSMiB sums the peak resident sets of the stack's children.
func (s *stack) peakRSSMiB() float64 {
	var sum float64
	for _, c := range s.children {
		sum += peakRSSMiB(c.pid)
	}
	return sum
}

func (s *stack) stop() {
	for _, c := range s.children {
		c.stop()
	}
	s.children = nil
}

// cpuTimes is the machine-wide CPU accounting of /proc/stat, in ticks.
type cpuTimes struct{ total, steal uint64 }

// readCPU reads the aggregate cpu line; the zero value if it cannot.
func readCPU() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var c cpuTimes
	// cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		c.total += v
		if i == 8 {
			c.steal = v
		}
	}
	return c
}

// stolenSince is the share of CPU time since an earlier reading that the
// hypervisor gave to someone else while this machine wanted to run.
func (c cpuTimes) stolenSince(before cpuTimes) float64 {
	if c.total <= before.total {
		return 0
	}
	return float64(c.steal-before.steal) / float64(c.total-before.total)
}
