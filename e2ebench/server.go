package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one graphitti-server process started through its flags.
type server struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan struct{} // closed once Wait returned
}

// serverArgs are the flags every start uses: a durable data directory,
// the shard count, and the seed snapshot (ignored once the directory
// holds state). -study "" keeps the demo study out of the store.
func serverArgs(addr, dataDir, snapshot string, shards int) []string {
	return []string{"-addr", addr, "-data-dir", dataDir, "-snapshot", snapshot,
		"-shards", strconv.Itoa(shards), "-study", ""}
}

// freeAddr reserves a loopback port for the server to bind.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startServer execs the server and returns once GET /readyz answers 200,
// with the time that took.
func startServer(bin, logPath, dataDir, snapshot string, shards int) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, serverArgs(addr, dataDir, snapshot, shards)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start server: %w", err)
	}
	s := &server{cmd: cmd, addr: addr, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is reported through readiness or kill
		close(s.done)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := t0.Add(120 * time.Second)
	for {
		select {
		case <-s.done:
			logf.Close()
			return nil, 0, fmt.Errorf("server exited during start-up (see %s)", logPath)
		default:
		}
		resp, err := probe.Get("http://" + addr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, fmt.Errorf("server not ready after 120s (see %s)", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill sends SIGKILL and waits for the process to be gone.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already-exited is fine
	<-s.done
	s.log.Close()
}

// stop asks for a graceful drain and waits; SIGKILL after 20s.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
		s.log.Close()
	case <-time.After(20 * time.Second):
		s.kill()
	}
}

// cpuTicks is the process's user+sys CPU in clock ticks (/proc/pid/stat).
func (s *server) cpuTicks() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 overall.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat")
	}
	return u + st, nil
}

// clockTick is USER_HZ, 100 on Linux.
const clockTick = 100

// peakRSSMB reads VmHWM, a process's peak resident set.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// getBody fetches url and returns the body of a 200 response.
func getBody(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}
