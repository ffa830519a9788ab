package loadgen

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// CloudProc is a real server binary (qbcloud or qbring) running as a
// child process: the chaos machinery shared by cmd/qbload and bench/.
// It owns the process handle and a single reader goroutine
// over the combined stdout/stderr stream, so the boot-time address scan
// and later output-content checks (restore lines, shutdown stats) never
// race on the pipe.
type CloudProc struct {
	// Addr is the listen address the process reported, ready to dial.
	Addr string

	bin  string
	cmd  *exec.Cmd
	mu   sync.Mutex
	buf  strings.Builder
	done chan struct{} // closed when the output stream hits EOF
}

// BootRing starts the qbring binary and waits for it to report its
// listen address, exactly like BootCloud (both servers print the same
// "serving on" line).
func BootRing(bin string, extra ...string) (*CloudProc, error) {
	return BootCloud(bin, extra...)
}

// BootCloud starts the qbcloud binary and waits (up to 10s) for it to
// report its listen address. By default it listens on an ephemeral
// loopback port; pass "-addr", "host:port" in extra to pin one, plus
// any other qbcloud flags (-state, -snapshot-every, -ring-token, ...).
func BootCloud(bin string, extra ...string) (*CloudProc, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &CloudProc{bin: bin, cmd: cmd, done: make(chan struct{})}
	// Both servers print "<name>: serving on 127.0.0.1:PORT" once
	// listening (qbring appends ring parameters after the address).
	addrCh := make(chan string, 1)
	go p.read(pipe, addrCh)
	select {
	case addr := <-addrCh:
		p.Addr = addr
		return p, nil
	case <-p.done:
		p.reap()
		return nil, fmt.Errorf("%s exited before reporting its address:\n%s", bin, p.Output())
	case <-time.After(10 * time.Second):
		p.reap()
		return nil, fmt.Errorf("%s did not report an address within 10s", bin)
	}
}

// reap kills the process and collects it, so a failed boot leaves neither
// a running server nor a zombie behind.
func (p *CloudProc) reap() {
	p.Kill()
	p.WaitExit(10 * time.Second)
}

func (p *CloudProc) read(pipe io.Reader, addrCh chan<- string) {
	defer close(p.done)
	sc := bufio.NewScanner(pipe)
	for sc.Scan() {
		line := sc.Text()
		p.mu.Lock()
		p.buf.WriteString(line)
		p.buf.WriteByte('\n')
		p.mu.Unlock()
		if idx := strings.Index(line, ": serving on "); idx >= 0 {
			rest := strings.TrimSpace(line[idx+len(": serving on "):])
			if f := strings.Fields(rest); len(f) > 0 {
				select {
				case addrCh <- f[0]:
				default:
				}
			}
		}
	}
}

// Output returns everything the process has printed so far.
func (p *CloudProc) Output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buf.String()
}

// Kill SIGKILLs the process: no shutdown save, no warning — the crash
// half of a chaos phase. Safe to call on an already-dead process.
func (p *CloudProc) Kill() error { return p.cmd.Process.Kill() }

// Stop asks for a graceful shutdown (SIGTERM), which makes qbcloud save
// a final snapshot and print per-store stats before exiting.
func (p *CloudProc) Stop() error { return p.cmd.Process.Signal(syscall.SIGTERM) }

// WaitExit waits for the output stream to hit EOF and reaps the process,
// killing it first if that takes longer than timeout. The exit status
// is not checked: callers that Kill expect a failure status, and
// callers that Stop assert on Output content instead.
func (p *CloudProc) WaitExit(timeout time.Duration) error {
	var err error
	select {
	case <-p.done:
	case <-time.After(timeout):
		p.Kill()
		err = fmt.Errorf("%s did not exit within %v", p.bin, timeout)
	}
	p.cmd.Wait()
	return err
}
