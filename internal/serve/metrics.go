package serve

// Session- and server-level instrumentation. The session bundle
// counts sweeps and items wherever the session runs (daemon or CLI —
// `schedcli sweepbatch -stats` prints the same registry the daemon
// scrapes); the server bundle counts what only exists at the HTTP
// boundary: admission refusals by reason, per-client fairness
// rejections, drain transitions, admission-queue wait and streamed
// bytes. All hooks are nil-safe, so an unwired session or server pays
// one branch per event and no instrumentation can perturb the JSONL
// bytes (the goldens pin this).

import (
	"time"

	"storagesched/internal/metrics"
)

// Admission-refusal reason labels on sched_refusals_total.
const (
	// RefusalQueueFull labels 429s from the global held-slot bound.
	RefusalQueueFull = "queue_full"
	// RefusalClientCap labels 429s from the per-client fairness cap.
	RefusalClientCap = "client_cap"
	// RefusalDraining labels 503s refused because the server drains.
	RefusalDraining = "draining"
	// RefusalBadQuery labels 400s for a /v1/sweep query that does not
	// parse into a sweep spec.
	RefusalBadQuery = "bad_query"
)

// sessionMetrics is the per-session instrument bundle: sweep and item
// totals plus the per-sweep wall-time histogram.
type sessionMetrics struct {
	sweepsStarted   *metrics.Counter
	sweepsCompleted *metrics.Counter
	sweepsFailed    *metrics.Counter
	items           *metrics.Counter
	itemFailures    *metrics.Counter
	cacheHitItems   *metrics.Counter
	sweepSeconds    *metrics.Histogram
}

// newSessionMetrics registers the session families on reg; a nil
// registry returns nil (instrumentation off).
func newSessionMetrics(reg *metrics.Registry) *sessionMetrics {
	if reg == nil {
		return nil
	}
	return &sessionMetrics{
		sweepsStarted: reg.Counter("sched_sweeps_started_total",
			"sweeps begun (Session.Sweep calls)"),
		sweepsCompleted: reg.Counter("sched_sweeps_completed_total",
			"sweeps that ran to the end of their stream"),
		sweepsFailed: reg.Counter("sched_sweeps_failed_total",
			"sweeps aborted by a fatal error (cancellation, invalid spec, write failure)"),
		items: reg.Counter("sched_sweep_items_total",
			"front lines emitted across all sweeps"),
		itemFailures: reg.Counter("sched_sweep_item_failures_total",
			"emitted lines carrying a per-item error"),
		cacheHitItems: reg.Counter("sched_sweep_cache_hit_items_total",
			"items served entirely from the front cache"),
		sweepSeconds: reg.Histogram("sched_sweep_seconds",
			"wall time of one whole sweep (stream decode to last line)", nil),
	}
}

// sweepStarted counts one Sweep call passing spec validation.
func (m *sessionMetrics) sweepStarted() {
	if m != nil {
		m.sweepsStarted.Inc()
	}
}

// clockStart returns the sweep's start time — zero when
// instrumentation is off, so an unwired session pays no clock read.
func (m *sessionMetrics) clockStart() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// sweepDone folds one finished Sweep call, started at t0, into the
// counters and the wall-time histogram.
func (m *sessionMetrics) sweepDone(st Stats, err error, t0 time.Time) {
	if m == nil {
		return
	}
	if err != nil {
		m.sweepsFailed.Inc()
	} else {
		m.sweepsCompleted.Inc()
	}
	m.items.Add(int64(st.Items))
	m.itemFailures.Add(int64(st.Failed))
	m.cacheHitItems.Add(int64(st.CacheHits))
	m.sweepSeconds.ObserveSince(t0)
}

// serverMetrics is the HTTP-boundary instrument bundle.
type serverMetrics struct {
	refusals         *metrics.CounterVec // by reason
	clientRefusals   *metrics.CounterVec // fairness rejections by client
	drainTransitions *metrics.Counter
	bytesStreamed    *metrics.Counter
	admissionWait    *metrics.Histogram
	sweepsInFlight   *metrics.Gauge
}

// newServerMetrics registers the server families on reg; a nil
// registry returns nil (instrumentation off).
func newServerMetrics(reg *metrics.Registry) *serverMetrics {
	if reg == nil {
		return nil
	}
	return &serverMetrics{
		refusals: reg.CounterVec("sched_refusals_total",
			"sweep requests refused before running (429s by reason, plus refusals while draining and bad queries)",
			"reason"),
		clientRefusals: reg.CounterVec("sched_client_refusals_total",
			"per-client fairness rejections (cardinality-capped; overflow folds into _other)",
			"client"),
		drainTransitions: reg.Counter("sched_drain_transitions_total",
			"times the server flipped from admitting to draining"),
		bytesStreamed: reg.Counter("sched_sweep_bytes_streamed_total",
			"response-body bytes streamed by /v1/sweep"),
		admissionWait: reg.Histogram("sched_admission_wait_seconds",
			"time an admitted sweep waited for a run slot", nil),
		sweepsInFlight: reg.Gauge("sched_sweeps_inflight",
			"sweep requests holding a run slot right now"),
	}
}

// refused counts one refusal; client is recorded only for fairness
// rejections, where one aggressive client is the story worth telling.
func (m *serverMetrics) refused(reason, client string) {
	if m == nil {
		return
	}
	m.refusals.With(reason).Inc()
	if reason == RefusalClientCap {
		m.clientRefusals.With(client).Inc()
	}
}

// slotWaitStart returns the moment an admitted sweep began waiting for
// a run slot — zero when instrumentation is off, so an unwired server
// pays no clock read.
func (m *serverMetrics) slotWaitStart() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// admitted records the slot wait that started at t0 and the sweep
// entering execution.
func (m *serverMetrics) admitted(t0 time.Time) {
	if m == nil {
		return
	}
	m.admissionWait.ObserveSince(t0)
	m.sweepsInFlight.Inc()
}

// finished records the sweep leaving execution and its streamed body
// bytes.
func (m *serverMetrics) finished(bytes int64) {
	if m == nil {
		return
	}
	m.sweepsInFlight.Dec()
	m.bytesStreamed.Add(bytes)
}

// drained counts one admitting-to-draining transition.
func (m *serverMetrics) drained() {
	if m == nil {
		return
	}
	m.drainTransitions.Inc()
}
