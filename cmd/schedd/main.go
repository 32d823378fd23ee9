// Command schedd is the long-running sweep daemon: one process, one
// resident worker pool, one warm content-addressed front cache, and an
// HTTP/JSONL API over them. Where `schedcli sweepbatch` pays pool
// startup and a cold cache on every invocation, schedd keeps both hot
// for its lifetime and serves repeated sweeps from the same session —
// the outputs are byte-identical to the CLI on identical inputs,
// because both run the internal/serve session layer.
//
// Endpoints (see docs/API.md for the wire reference):
//
//	POST /v1/sweep       sweep the body's instances/DAGs, stream JSONL fronts
//	GET  /v1/cache/stats front-cache counters as JSON
//	GET  /metrics        Prometheus text exposition of the daemon's counters
//	GET  /healthz        liveness probe
//	GET  /readyz         readiness probe (503 once draining)
//	GET  /debug/pprof/   runtime profiles (only with -pprof)
//
// Logs are structured JSONL on stderr via log/slog: lifecycle events
// plus one access line per finished request, carrying the same request
// ID the response returns as X-Request-ID.
//
// With -cache-dir the daemon also runs the cache lifecycle: one gc
// sweep at startup and one per -cache-gc-interval, enforcing the
// -cache-max-bytes size cap (deterministic oldest-first eviction) and
// the -cache-max-age age cap, compacting the segment files of writers
// that have exited, and removing the files of the one-file-per-key
// layout older versions wrote. Sweeps are logged and counted in the
// sched_cache_gc_* metric families.
//
// On SIGINT/SIGTERM the daemon drains gracefully: it stops admitting
// sweeps, finishes those in flight, stops the gc ticker, then releases
// the pool and exits 0.
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
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"storagesched/internal/cache"
	"storagesched/internal/metrics"
	"storagesched/internal/serve"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintf(os.Stderr, "schedd: %v\n", err)
		os.Exit(1)
	}
}

// run is the daemon body, separated from main so tests can drive a
// full process lifecycle in-process: ready (when non-nil) receives the
// listener's address once the server accepts connections, and ctx
// cancellation triggers the same graceful drain as SIGTERM.
func run(ctx context.Context, args []string, logw io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("schedd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7440", "listen address")
	workers := fs.Int("workers", 0, "resident pool size (0 = one per CPU)")
	cacheDir := fs.String("cache-dir", "", "content-addressed front cache directory (disk tier)")
	cacheMem := fs.Int("cache-mem", 0, "front cache memory-tier entries (0 = default when caching; < 0 = disk-only)")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 0, "persistent cache tier size cap enforced by the gc sweep (0 = unbounded)")
	cacheMaxAge := fs.Duration("cache-max-age", 0, "evict cache entries last written longer than this ago (0 = unbounded)")
	cacheGCInterval := fs.Duration("cache-gc-interval", 5*time.Minute, "background cache gc period; 0 disables the sweep")
	maxConcurrent := fs.Int("max-concurrent", serve.DefaultMaxConcurrent, "sweeps running at once")
	maxQueue := fs.Int("max-queue", serve.DefaultMaxQueue, "sweeps queued beyond -max-concurrent before 429 (-1 = none)")
	maxPerClient := fs.Int("max-per-client", serve.DefaultMaxPerClient, "one client's sweeps in flight before 429 (-1 = no cap)")
	maxBody := fs.Int64("max-body", serve.DefaultMaxBodyBytes, "request body byte limit")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "grace period for in-flight sweeps on shutdown")
	pprofOn := fs.Bool("pprof", false, "serve runtime profiles on /debug/pprof/ (off by default: profiles expose internals)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	logh := slog.NewJSONHandler(logw, nil)
	logger := slog.New(logh)

	if (*cacheMaxBytes != 0 || *cacheMaxAge != 0) && *cacheDir == "" {
		return fmt.Errorf("-cache-max-bytes/-cache-max-age need -cache-dir (only the persistent tier has a lifecycle)")
	}
	// The lifecycle caps ride on the cache config, so the background
	// sweep (and any `schedcli cache gc` run with a zero policy against
	// this cache) enforces them.
	fcache, err := serve.OpenCache(cache.Config{
		Dir:        *cacheDir,
		MemEntries: *cacheMem,
		MaxBytes:   *cacheMaxBytes,
		MaxAge:     *cacheMaxAge,
	})
	if err != nil {
		return err
	}
	session := serve.NewSession(serve.SessionConfig{
		Workers:  *workers,
		Resident: true,
		Cache:    fcache,
		Metrics:  metrics.NewRegistry(),
	})
	defer session.Close()

	srv := serve.NewServer(session, serve.ServerConfig{
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		MaxPerClient:  *maxPerClient,
		MaxBodyBytes:  *maxBody,
		AccessLog:     logger,
	})
	var handler http.Handler = srv
	if *pprofOn {
		// pprof mounts beside the API; everything else still flows
		// through the server (request IDs, access logs, admission).
		mux := http.NewServeMux()
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		mux.Handle("/", srv)
		handler = mux
	}
	httpSrv := &http.Server{
		Handler:  handler,
		ErrorLog: slog.NewLogLogger(logh, slog.LevelError),
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("listening",
		"addr", ln.Addr().String(),
		"workers", session.Workers(),
		"cache", fcache != nil,
		"pprof", *pprofOn)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	// Background cache gc: one sweep at start (collecting whatever a
	// previous process left behind), then one per -cache-gc-interval.
	// The zero GCPolicy resolves to the -cache-max-* caps carried by
	// the cache config. The sweep runs safely against in-flight sweeps
	// — an evicted entry is just a future miss — and is stopped after
	// the HTTP drain, before the session releases the pool.
	stopGC := func() {}
	if fcache != nil && *cacheDir != "" && *cacheGCInterval > 0 {
		gcDone := make(chan struct{})
		gcStopped := make(chan struct{})
		go func() {
			defer close(gcStopped)
			ticker := time.NewTicker(*cacheGCInterval)
			defer ticker.Stop()
			for {
				if res, err := fcache.GC(cache.GCPolicy{}); err != nil {
					logger.Warn("cache gc failed", "err", err.Error())
				} else {
					logger.Info("cache gc",
						"scanned", res.Scanned,
						"evicted_age", res.EvictedAge,
						"evicted_size", res.EvictedSize,
						"evicted_bytes", res.EvictedBytes,
						"tmp_removed", res.LegacyRemoved,
						"compacted", res.Compacted,
						"live", res.Live,
						"live_bytes", res.LiveBytes)
				}
				select {
				case <-ticker.C:
				case <-gcDone:
					return
				}
			}
		}()
		stopGC = func() { close(gcDone); <-gcStopped }
	}
	defer stopGC()

	// Serve until signalled; then drain: stop admitting, finish
	// in-flight sweeps (bounded by -drain-timeout), release the pool.
	sigCtx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-sigCtx.Done():
	}
	logger.Info("draining", "msg", "no new sweeps admitted, waiting for in-flight work")
	srv.BeginDrain()

	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("drained")
	return nil
}
