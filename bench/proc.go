package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one child server. Its stderr goes to a file under bench/out/ and
// a goroutine waits on it from the start, so a server that dies mid-pass is
// noticed (exited closes) instead of quietly shortening the pass.
type proc struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	exited  chan struct{}
	waitErr error
}

// procSet owns every child the harness starts, so one call stops them all
// on success, failure and SIGINT alike.
type procSet struct {
	mu    sync.Mutex
	procs []*proc
}

// start launches bin with args and GOMAXPROCS set, stderr and stdout
// captured to logPath.
func (ps *procSet) start(name, bin string, gomaxprocs int, logPath string, args ...string) (*proc, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// If the harness is killed outright (the driver's timeout), its servers
	// must not outlive it: the next run would refuse to start beside them.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		_ = logFile.Close() // the start error is the one to report
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, logPath: logPath, exited: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		_ = logFile.Close() // the child's output is diagnostic only
		close(p.exited)
	}()
	ps.mu.Lock()
	ps.procs = append(ps.procs, p)
	ps.mu.Unlock()
	return p, nil
}

// alive reports whether the child is still running.
func (p *proc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// hwmKB reads the child's peak resident set (VmHWM) from /proc; it must be
// read before the child is signalled.
func (p *proc) hwmKB() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseInt(fields[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// stop sends SIGTERM (wvqd drains and exits), escalating to SIGKILL after
// ten seconds, and returns once the child has been waited for.
func (p *proc) stop() {
	if !p.alive() {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // racing a natural exit is fine
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// stopAll stops every child still running, newest first (a coordinator
// before its shards).
func (ps *procSet) stopAll() {
	ps.mu.Lock()
	procs := ps.procs
	ps.procs = nil
	ps.mu.Unlock()
	for i := len(procs) - 1; i >= 0; i-- {
		procs[i].stop()
	}
}

// freePort finds a free loopback port by binding port 0 and releasing it.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// waitTCP waits until addr accepts a connection or p exits.
func waitTCP(p *proc, addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if !p.alive() {
			return fmt.Errorf("%s exited before listening (%v); see %s", p.name, p.waitErr, p.logPath)
		}
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			return conn.Close()
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s did not listen on %s within %v", p.name, addr, timeout)
}

// runningWvqd returns the pid of a wvqd already running on the host, or 0.
// Another server would share the two cores and poison every number.
func runningWvqd() int {
	entries, err := filepath.Glob("/proc/[0-9]*/comm")
	if err != nil {
		return 0
	}
	for _, e := range entries {
		data, err := os.ReadFile(e)
		if err != nil {
			continue // the process ended between the glob and the read
		}
		if strings.TrimSpace(string(data)) == "wvqd" {
			pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(e)))
			return pid
		}
	}
	return 0
}

// runTool runs a fixture-building command to completion and returns its
// wall time; output is kept for the error message only.
func runTool(ctx context.Context, dir, bin string, args ...string) (time.Duration, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	start := time.Now()
	out, err := cmd.CombinedOutput()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return 0, fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, strings.TrimSpace(string(out)))
		}
		return 0, fmt.Errorf("%s: %w", filepath.Base(bin), err)
	}
	return time.Since(start), nil
}
