package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one running xontoserve process.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	logf   *os.File
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// launch starts xontoserve over dataDir with the given flags, its
// stdout and stderr going to logPath (the server logs every request
// line), and waits for the first 200 from /readyz. The returned
// duration runs from just before the process starts to that answer.
func launch(bin, dataDir, logPath string, flags []string) (*child, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"-data", dataDir, "-addr", addr}, flags...)
	c := &child{cmd: exec.Command(bin, args...), base: "http://" + addr, logf: logf, exited: make(chan struct{})}
	c.cmd.Stdout = logf
	c.cmd.Stderr = logf
	// If the benchmark dies without stopping it, the kernel kills the
	// server too.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.exited)
	}()
	probe := &http.Client{Timeout: 2 * time.Second}
	deadline := start.Add(150 * time.Second)
	for {
		resp, err := probe.Get(c.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Since(start), nil
			}
		}
		select {
		case <-c.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("xontoserve exited before ready (%v); log %s:\n%s", c.err, logPath, tail(logPath))
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, 0, fmt.Errorf("xontoserve not ready after %v; log %s:\n%s", time.Since(start), logPath, tail(logPath))
		}
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (c *child) peakRSSMB() (float64, error) { return c.statusMB("VmHWM:") }

// rssMB reads the process's current resident set (VmRSS) in MiB.
func (c *child) rssMB() (float64, error) { return c.statusMB("VmRSS:") }

// statusMB reads one kB field of /proc/<pid>/status in MiB.
func (c *child) statusMB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// stop asks the server to drain (SIGTERM), kills it if it has not
// exited within 20 s, and returns once the process is gone.
func (c *child) stop() {
	select {
	case <-c.exited:
	default:
		_ = c.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-c.exited:
		case <-time.After(20 * time.Second):
			_ = c.cmd.Process.Kill()
			<-c.exited
		}
	}
	c.logf.Close()
}

// tail returns the last lines of a log file for error messages.
func tail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}
