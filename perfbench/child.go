package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one wardserve child process.
type server struct {
	cmd  *exec.Cmd
	URL  string // http://host:port
	Pid  int
	done chan struct{} // closed once the process has been reaped

	stderr lockedTail
}

var (
	childrenMu sync.Mutex
	children   []*server
)

// startServer spawns wardserve on a free loopback port with the given
// extra flags and waits until its /healthz answers 200. It returns the
// spawn-to-ready time.
func startServer(binDir string, flags ...string) (*server, time.Duration, error) {
	start := time.Now()
	args := append([]string{"-addr", "127.0.0.1:0", "-grace", "2s"}, flags...)
	cmd := exec.Command(filepath.Join(binDir, "wardserve"), args...)
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, done: make(chan struct{})}
	cmd.Stderr = &s.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start wardserve: %w", err)
	}
	s.Pid = cmd.Process.Pid
	childrenMu.Lock()
	children = append(children, s)
	childrenMu.Unlock()

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "wardserve: listening on "); ok {
				select {
				case addrCh <- a:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		_ = cmd.Wait()
		close(s.done)
	}()
	select {
	case a := <-addrCh:
		s.URL = "http://" + a
	case <-s.done:
		return nil, 0, fmt.Errorf("wardserve exited before listening: %s", s.stderr.String())
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, 0, errors.New("wardserve did not report its address")
	}
	client := newClient()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := client.Get(s.URL + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("wardserve not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the child with SIGTERM, kills it if it outlives the grace
// period, and waits until it has been reaped.
func (s *server) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// stopChildren stops every child this process started.
func stopChildren() {
	childrenMu.Lock()
	all := children
	children = nil
	childrenMu.Unlock()
	for _, s := range all {
		s.stop()
	}
}

// newClient returns an HTTP client holding at most one connection, so each
// client is exactly one load-generating connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in " + path)
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat line")
	}
	return (ut + st) / clockTicks, nil
}

// selfCPUSeconds is this process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// scrapeProm reads a server's Prometheus exposition into a map from series
// (name plus labels) to value.
func scrapeProm(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics?format=prom")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(b)), nil
}

// lockedTail keeps the last few KiB a child wrote, for error messages.
type lockedTail struct {
	mu  sync.Mutex
	buf []byte
}

func (t *lockedTail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 4096 {
		t.buf = t.buf[len(t.buf)-4096:]
	}
	return len(p), nil
}

func (t *lockedTail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
