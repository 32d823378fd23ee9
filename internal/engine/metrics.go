package engine

// Engine instrumentation. A Metrics bundle holds the pool-level
// instruments a batch updates as its jobs move through the shared
// worker pool; wire one into a batch via BatchConfig.Metrics (the
// serve session does this for both front ends). Every hook is safe on
// a nil *Metrics, so the hot path carries no conditionals and an
// uninstrumented batch pays one predictable branch per event.
//
// Instrumentation never touches results: the counters observe the job
// flow, the job flow never observes the counters, so the JSONL output
// is byte-identical with metrics on or off (the golden tests pin
// this).

import (
	"time"

	"storagesched/internal/metrics"
)

// Metrics is the engine's instrument bundle, registered under the
// sched_engine_* families. Construct with NewMetrics; a nil *Metrics
// disables instrumentation.
type Metrics struct {
	queueDepth *metrics.Gauge
	inFlight   *metrics.Gauge
	jobs       *metrics.Counter
	memoHits   *metrics.Counter
	jobSeconds *metrics.Histogram
}

// NewMetrics registers the engine families on reg and returns the
// bundle; a nil registry returns nil (instrumentation off).
func NewMetrics(reg *metrics.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		queueDepth: reg.Gauge("sched_engine_queue_depth",
			"jobs admitted to the worker pool and not yet picked up by a worker"),
		inFlight: reg.Gauge("sched_engine_jobs_inflight",
			"jobs executing on a worker right now"),
		jobs: reg.Counter("sched_engine_jobs_total",
			"jobs executed (one per distinct item, algorithm, delta evaluation)"),
		memoHits: reg.Counter("sched_engine_prepared_memo_hits_total",
			"jobs that found their item's prepared state already memoized"),
		jobSeconds: reg.Histogram("sched_engine_job_seconds",
			"wall time of one job against its item's prepared state", nil),
	}
}

// jobQueued records a job handed toward the pool's job channel.
func (m *Metrics) jobQueued() {
	if m != nil {
		m.queueDepth.Inc()
	}
}

// jobUnqueued undoes jobQueued when cancellation stops the hand-off.
func (m *Metrics) jobUnqueued() {
	if m != nil {
		m.queueDepth.Dec()
	}
}

// jobDequeued records a worker picking the job up.
func (m *Metrics) jobDequeued() {
	if m != nil {
		m.queueDepth.Dec()
	}
}

// memoHit records a job that found its item already prepared.
func (m *Metrics) memoHit() {
	if m != nil {
		m.memoHits.Inc()
	}
}

// jobStart marks the beginning of a job execution and returns its
// start time (zero when instrumentation is off, so the hot path pays
// no clock read without a registry).
func (m *Metrics) jobStart() time.Time {
	if m == nil {
		return time.Time{}
	}
	m.inFlight.Inc()
	return time.Now()
}

// jobEnd marks the end of a job execution started at t0.
func (m *Metrics) jobEnd(t0 time.Time) {
	if m == nil {
		return
	}
	m.inFlight.Dec()
	m.jobs.Inc()
	m.jobSeconds.ObserveSince(t0)
}
