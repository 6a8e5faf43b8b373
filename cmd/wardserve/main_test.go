package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"wardrop"
)

// syncBuffer is a mutex-guarded buffer the server goroutine writes and the
// test polls.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var addrRe = regexp.MustCompile(`listening on (\S+)`)

// startServer runs the command on a free port and returns its base URL and
// a shutdown func that asserts a clean drain.
func startServer(t *testing.T, args []string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	errCh := make(chan error, 1)
	go func() { errCh <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out) }()

	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case err := <-errCh:
			t.Fatalf("server exited before listening: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listen address announced:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return "http://" + addr, func() {
		cancel()
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("server shutdown: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("server did not drain")
		}
	}
}

func TestServeSmoke(t *testing.T) {
	base, shutdown := startServer(t, []string{"-workers", "2", "-grace", "5s"})
	defer shutdown()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	spec, err := os.ReadFile("testdata/pigou.json")
	if err != nil {
		t.Fatal(err)
	}
	post := func() []byte {
		resp, err := http.Post(base+"/v1/scenarios", "application/json", bytes.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/scenarios status %d: %s", resp.StatusCode, body)
		}
		return body
	}
	first := post()

	// The served document must match the library pipeline — the same bytes
	// `wardsim -scenario testdata/pigou.json -json` emits (the CI smoke
	// step compares the actual binaries).
	sc, err := wardrop.ParseScenario(bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	res, events, err := sc.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := wardrop.EncodeRunResult(&want, sc, res, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, want.Bytes()) {
		t.Fatalf("served result differs from wardsim's pipeline:\n got: %s\nwant: %s", first, want.Bytes())
	}

	// Repeat request: identical bytes from cache.
	if second := post(); !bytes.Equal(first, second) {
		t.Fatalf("cached repeat diverged:\n1st: %s\n2nd: %s", first, second)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"jobsRun":1`, `"cacheHits":1`, `"cacheMisses":1`} {
		if !strings.Contains(string(metrics), field) {
			t.Errorf("metrics %s missing %s", metrics, field)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-nonsense"},
		{"-addr", "999.999.999.999:0"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestListFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "topology:") {
		t.Fatalf("-list output lacks the catalog:\n%s", out.String())
	}
}

// TestHTTPServerBoundsHeaderReads pins the slow-client guard on the server
// run builds: unfinished request headers time out, while idle keep-alive
// connections (governed by IdleTimeout, else ReadTimeout) stay untimed.
func TestHTTPServerBoundsHeaderReads(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout != 0 || hs.ReadTimeout != 0 {
		t.Errorf("IdleTimeout = %v, ReadTimeout = %v; idle keep-alive connections must stay untimed",
			hs.IdleTimeout, hs.ReadTimeout)
	}
}
