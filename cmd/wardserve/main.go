// Command wardserve runs the simulation service: an HTTP/JSON server that
// accepts scenario and campaign specifications, schedules them on a bounded
// worker pool, memoizes results in a fingerprint-keyed LRU cache, and
// streams campaign runs as NDJSON.
//
// Endpoints:
//
//	GET  /healthz                 readiness: store probe + queue saturation (503 when not ready)
//	GET  /v1/catalog              the registered component catalog
//	POST /v1/scenarios            run a scenario (sync; ?mode=job for async)
//	POST /v1/campaigns            run a campaign (always a job resource)
//	POST /v1/tasks                run one sweep task (sync; the distributed-sweep work unit)
//	GET  /v1/jobs                 recent jobs
//	GET  /v1/jobs/{id}            one job
//	GET  /v1/jobs/{id}/stream     the job's NDJSON stream (replay + follow)
//	GET  /metrics                 jobs run, cache hit rate, queue depth, latency percentiles
//
// With -store DIR the in-memory result cache gains a durable second tier: a
// content-addressed store of result documents keyed by spec fingerprint,
// shared safely between restarts and between servers pointing at the same
// directory (the backing filesystem must be shared for a multi-node fleet).
//
// SIGINT/SIGTERM drains the server: listeners stop accepting, in-flight and
// queued jobs get -grace to finish, then remaining runs are cancelled. A
// second signal terminates immediately.
//
// Usage:
//
//	wardserve -addr :8080
//	wardserve -addr 127.0.0.1:0 -workers 8 -queue 128 -cache 512
//	wardserve -addr :8080 -store /var/lib/wardrop -store-max 1073741824
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the DefaultServeMux the -pprof listener serves
	"os"
	"time"

	"wardrop"
	"wardrop/internal/drain"
	"wardrop/internal/obs"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a client that never finishes them cannot hold a connection
// forever. Idle keep-alive connections stay untimed: the header clock only
// starts once the next request's first bytes arrive.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer builds the HTTP server run serves the handler on.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// newLogger builds the process logger; see obs.NewLogger for the shared
// conventions.
func newLogger(w io.Writer, verbose, json bool) *slog.Logger {
	return obs.NewLogger(w, verbose, json)
}

func main() {
	ctx, stop := drain.Context(context.Background())
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wardserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("wardserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	workers := fs.Int("workers", 0, "worker-pool size (default GOMAXPROCS)")
	queue := fs.Int("queue", 0, "job-queue depth (default 64)")
	cache := fs.Int("cache", 0, "result-cache entries (default 256; negative disables)")
	campaignWorkers := fs.Int("campaign-workers", 0, "sweep pool width inside one campaign job (default 1)")
	storeDir := fs.String("store", "", "durable result-store directory (second cache tier; survives restarts)")
	storeMax := fs.Int64("store-max", 0, "result-store byte budget, least-recently-used eviction (0 = unbounded)")
	grace := fs.Duration("grace", 15*time.Second, "shutdown grace period for in-flight jobs")
	list := fs.Bool("list", false, "print the registered component catalog and exit")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (empty disables)")
	verbose := fs.Bool("v", false, "debug-level structured logs (per-request access log included)")
	logJSON := fs.Bool("logjson", false, "structured logs as JSON lines instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		return wardrop.WriteCatalog(stdout)
	}
	logger := newLogger(os.Stderr, *verbose, *logJSON)

	// Bind before starting the worker pool so a bad -addr never spawns (and
	// leaks) workers.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	cfg := wardrop.ServerConfig{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheEntries:    *cache,
		CampaignWorkers: *campaignWorkers,
	}
	if *storeDir != "" {
		st, err := wardrop.OpenResultStore(*storeDir, *storeMax)
		if err != nil {
			ln.Close()
			return err
		}
		cfg.Store = st
		stats := st.Stats()
		fmt.Fprintf(stdout, "wardserve: store %s (%d objects, %d bytes)\n", *storeDir, stats.Objects, stats.Bytes)
	}
	srv := wardrop.NewServer(cfg)
	// The resolved address line is machine-readable on purpose: tests and
	// scripts bind :0 and scrape the port.
	fmt.Fprintf(stdout, "wardserve: listening on %s\n", ln.Addr())
	logger.Info("listening", "addr", ln.Addr().String(), "workers", cfg.Workers)

	// Opt-in pprof on its own listener: profiling must never share the
	// public address, and a bad -pprof is a startup error, not a silent gap.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer pln.Close()
		fmt.Fprintf(stdout, "wardserve: pprof on %s\n", pln.Addr())
		logger.Info("pprof", "addr", pln.Addr().String())
		go func() { _ = http.Serve(pln, nil) }()
	}

	hs := newHTTPServer(wardrop.ServerAccessLog(logger, srv))
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The listener died on its own: tear the pool down before exiting.
		gctx, cancel := drain.Grace(*grace)
		defer cancel()
		_ = srv.Close(gctx)
		return err
	case <-ctx.Done():
	}

	// Drain: stop accepting, give in-flight handlers and queued jobs the
	// grace period, then cancel whatever is still running.
	fmt.Fprintf(stdout, "wardserve: draining (grace %s)\n", *grace)
	logger.Info("draining", "grace", grace.String())
	gctx, cancel := drain.Grace(*grace)
	defer cancel()
	shutdownErr := hs.Shutdown(gctx)
	closeErr := srv.Close(gctx)
	if errors.Is(closeErr, context.DeadlineExceeded) {
		fmt.Fprintln(stdout, "wardserve: grace period expired, cancelled remaining jobs")
		closeErr = nil
	}
	if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
		return shutdownErr
	}
	return closeErr
}
