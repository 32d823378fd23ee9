// Package serve is the session layer between the sweep engine and its
// front ends: the schedcli command line and the schedd HTTP daemon
// share exactly one code path from "a stream of instances and task
// DAGs" to "one JSONL front line per item", so their outputs are
// byte-identical on identical inputs — the contract the golden files,
// the shard merge tool and the CI smoke jobs all pin.
//
// A Session owns what persists across sweeps: an optional resident
// engine.Pool (the daemon keeps one for its whole lifetime; the CLI
// runs per-call pools) and an optional content-addressed front cache.
// A SweepSpec carries what varies per sweep: the δ-grid, family
// selection, streaming window and adaptive-refinement parameters.
// Session.Sweep executes one spec over one item stream and
// writes the JSONL fronts to an io.Writer, in input order.
//
// Server (server.go) wraps a Session with the HTTP/JSONL API —
// admission control with bounded backpressure and per-client fairness,
// cache statistics, health/readiness probes and graceful drain.
package serve

import (
	"context"
	"fmt"
	"io"
	"iter"
	"runtime"

	"storagesched/internal/cache"
	"storagesched/internal/engine"
	"storagesched/internal/metrics"
	"storagesched/internal/refine"
)

// SessionConfig parameterizes a Session.
type SessionConfig struct {
	// Workers sizes the worker pool (resident or per-call); 0 or
	// negative means runtime.NumCPU().
	Workers int

	// Resident keeps one engine.Pool alive for the Session's lifetime:
	// every Sweep submits its jobs there, so concurrent sweeps share
	// workers and their warm scratch buffers. When false each Sweep
	// runs a private pool, torn down when the call returns — the CLI
	// shape.
	Resident bool

	// Cache, when non-nil, is the content-addressed front cache every
	// sweep of the session consults and fills. Shared across sweeps
	// (and safe for their concurrency), it is what makes a warm daemon
	// answer repeated requests without recomputing.
	Cache *cache.Cache

	// Metrics, when non-nil, is the registry the session instruments:
	// sweep/item counters and the sweep wall-time histogram at the
	// session level, the sched_engine_* families for every batch the
	// session runs, and the sched_cache_* families when Cache is set.
	// Nil disables instrumentation; the JSONL output is byte-identical
	// either way.
	Metrics *metrics.Registry
}

// Session is one long-lived sweep execution context: the pool
// configuration plus the shared front cache. Both front ends construct
// one — the CLI per command invocation, the daemon per process — and
// run every sweep through it. A Session is safe for concurrent Sweep
// calls.
type Session struct {
	workers int
	cache   *cache.Cache
	pool    *engine.Pool
	reg     *metrics.Registry
	met     *sessionMetrics
	engMet  *engine.Metrics
}

// NewSession builds a session; close it with Close when done (a
// must for resident sessions, a no-op otherwise).
func NewSession(cfg SessionConfig) *Session {
	s := &Session{workers: cfg.Workers, cache: cfg.Cache, reg: cfg.Metrics}
	if s.workers <= 0 {
		s.workers = runtime.NumCPU()
	}
	if cfg.Resident {
		s.pool = engine.NewPool(s.workers)
	}
	s.met = newSessionMetrics(s.reg)
	s.engMet = engine.NewMetrics(s.reg)
	s.cache.RegisterMetrics(s.reg)
	return s
}

// Workers returns the session's effective pool size.
func (s *Session) Workers() int { return s.workers }

// Cache returns the session's front cache (nil when caching is off) —
// the daemon's statistics endpoint reads counters from it.
func (s *Session) Cache() *cache.Cache { return s.cache }

// Registry returns the session's metrics registry (nil when
// instrumentation is off) — the daemon's /metrics endpoint and the
// CLI's -stats flag encode it.
func (s *Session) Registry() *metrics.Registry { return s.reg }

// Close releases the resident pool, if any: queued jobs finish and the
// workers exit. Callers must quiesce Sweep calls first; a draining
// server does this by construction.
func (s *Session) Close() {
	if s.pool != nil {
		s.pool.Close()
	}
}

// OpenCache builds the front cache selected by the -cache-dir and
// -cache-mem knobs both front ends expose; both zero means caching off
// (a nil cache), whatever else cfg carries.
func OpenCache(cfg cache.Config) (*cache.Cache, error) {
	if cfg.Dir == "" && cfg.MemEntries == 0 {
		return nil, nil
	}
	return cache.New(cfg)
}

// SweepSpec is one sweep's parameters — everything a request (CLI
// flags or HTTP query) may vary.
type SweepSpec struct {
	// Deltas is the resolved δ-grid (see BuildGrid). Required
	// non-empty.
	Deltas []float64

	// SkipSBO / SkipRLS exclude an algorithm family.
	SkipSBO, SkipRLS bool

	// MaxPending bounds the items in flight; 0 means twice the worker
	// count.
	MaxPending int

	// Refine enables the adaptive sweep: per item, a coarse sweep at
	// Deltas, then targeted re-sweeps of the δ-intervals where each
	// front's relative gap exceeds RefineGap.
	Refine bool

	// RefineGap and RefineMaxPoints parameterize refinement; zero
	// values resolve to refine.DefaultGap / refine.DefaultMaxPoints.
	RefineGap       float64
	RefineMaxPoints int
}

// BuildGrid resolves a named grid spacing ("geo" | "lin") over
// [dmin, dmax] with the given point count — the grid vocabulary both
// front ends expose.
func BuildGrid(kind string, dmin, dmax float64, points int) ([]float64, error) {
	switch kind {
	case "geo":
		return engine.GeometricGrid(dmin, dmax, points)
	case "lin":
		return engine.LinearGrid(dmin, dmax, points)
	}
	return nil, fmt.Errorf("unknown grid spacing %q", kind)
}

// Stats summarizes one Sweep call.
type Stats struct {
	// Items counts emitted lines; Failed counts those carrying a
	// per-item error.
	Items, Failed int

	// CacheHits counts items whose Result was served entirely from the
	// session cache.
	CacheHits int
}

// Sweep executes one spec over the item stream and writes one JSONL
// front line per item to w, in input order (see FrontLine for the line
// schema — the bytes are the sweepbatch golden contract). Per-item
// failures become error lines and count in Stats.Failed; the sweep
// continues past them. A fatal error — context cancellation, a write
// failure on w, an invalid spec — aborts the stream and is returned.
//
// items yields (item, source label) pairs; the label names the item in
// its output line. The stream is consumed concurrently with emission,
// and any Tag on the items is replaced by the session's own per-item
// metadata.
func (s *Session) Sweep(ctx context.Context, items iter.Seq2[engine.BatchItem, string], spec SweepSpec, w io.Writer) (Stats, error) {
	var st Stats
	s.met.sweepStarted()
	t0 := s.met.clockStart()
	bcfg := engine.BatchConfig{
		Config: engine.Config{
			Deltas:  spec.Deltas,
			Workers: s.workers,
			SkipSBO: spec.SkipSBO,
			SkipRLS: spec.SkipRLS,
		},
		MaxPending: spec.MaxPending,
		Cache:      s.cache,
		Pool:       s.pool,
		Metrics:    s.engMet,
	}
	tagged := taggedItems(items)
	emit := frontLineEmitter(w, &st)

	var err error
	if spec.Refine {
		// Adaptive: per item, a coarse phase at the configured grid,
		// then a refinement phase targeting the front's bends; one
		// merged front per line, still streamed in input order.
		rcfg := refine.Config{Gap: spec.RefineGap, MaxPoints: spec.RefineMaxPoints}
		err = refine.SweepBatchAdaptive(ctx, tagged, bcfg, rcfg, emit)
	} else {
		err = engine.SweepBatch(ctx, tagged, bcfg, emit)
	}
	s.met.sweepDone(st, err, t0)
	return st, err
}
