package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one mass-server child process.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	logf   *os.File
}

// freeAddr returns a loopback address with a port nobody listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer launches bin with the workload's flags; its output goes to
// logPath. The child is killed if the harness dies first.
func startServer(bin string, w *workload, corpus, dataDir, logPath string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, w.serverArgs(corpus, addr, dataDir)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting mass-server: %w", err)
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), logf: logf}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server is expected
		close(p.exited)
	}()
	return p, nil
}

// waitReady polls until path answers 2xx with a well-formed envelope and
// accepts answer, and returns the time since since.
func (p *serverProc) waitReady(ctx context.Context, since time.Time, path string, body []byte, accept func([]byte) bool, timeout time.Duration) (time.Duration, error) {
	c := newConn(p.base)
	defer c.close()
	deadline := time.Now().Add(timeout)
	method := "GET"
	if body != nil {
		method = "POST"
	}
	for {
		status, data, err := c.do(ctx, method, path, body, "")
		if err == nil {
			if env, e := checkEnvelope(status, data); e == nil && (accept == nil || accept(env.Data)) {
				return time.Since(since), nil
			}
		}
		select {
		case <-p.exited:
			return 0, fmt.Errorf("mass-server exited during start-up (see %s)", p.logf.Name())
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("mass-server not serving after %s", timeout)
		}
	}
}

// peakRSSMB reads the process's VmHWM in MB.
func (p *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// kill sends SIGKILL and waits until the process has exited.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill() // fails only if it already exited
	<-p.exited
	p.logf.Close()
}
