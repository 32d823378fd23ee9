package engine

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"storagesched/internal/core"
	"storagesched/internal/gen"
	"storagesched/internal/metrics"
	"storagesched/internal/model"
)

// TestBatchMetricsAccounting: a batch wired with a Metrics bundle
// accounts for every job exactly — the job counter matches the runs
// the results report less the RLS BLevel runs, which on instance items
// are copies of the LPT run and execute no job; the queue and
// in-flight gauges return to zero; and items with more than one job
// record memo hits for the shared prepared state.
func TestBatchMetricsAccounting(t *testing.T) {
	ins := []*model.Instance{gen.Uniform(20, 2, 1), gen.Uniform(24, 3, 2)}
	reg := metrics.NewRegistry()
	cfg := BatchConfig{
		Config:  Config{Deltas: []float64{0.5, 1, 2, 4}, Workers: 2},
		Metrics: NewMetrics(reg),
	}

	var runs, copies int
	err := SweepBatch(context.Background(), BatchOf(ins...), cfg, func(br BatchResult) error {
		if br.Err != nil {
			return br.Err
		}
		runs += len(br.Result.Runs)
		for _, r := range br.Result.Runs {
			if r.Algorithm == AlgRLS && r.Tie == core.TieBottomLevel {
				copies++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	want := []string{
		"sched_engine_queue_depth 0\n",
		"sched_engine_jobs_inflight 0\n",
		"sched_engine_job_seconds_count",
	}
	for _, line := range want {
		if !strings.Contains(text, line) {
			t.Errorf("scrape missing %q:\n%s", line, text)
		}
	}
	if copies == 0 {
		t.Fatal("no BLevel runs to copy; the accounting below would not cover aliasing")
	}
	if got, want := cfg.Metrics.jobs.Value(), int64(runs-copies); got != want {
		t.Errorf("jobs counter = %d, want %d (one per distinct run)", got, want)
	}
	// Each item runs several jobs against one memoized prepared state;
	// all but the preparing job of each item may observe the memo, and
	// at least one must (jobs per item far exceed the worker count).
	if hits := cfg.Metrics.memoHits.Value(); hits == 0 || hits >= int64(runs) {
		t.Errorf("memo hits = %d, want in (0, %d)", hits, runs)
	}
}

// TestBatchMetricsNilSafe: a nil bundle (no registry) is inert — the
// batch runs identically and every hook is a no-op.
func TestBatchMetricsNilSafe(t *testing.T) {
	if m := NewMetrics(nil); m != nil {
		t.Fatalf("NewMetrics(nil) = %v, want nil", m)
	}
	var m *Metrics
	m.jobQueued()
	m.jobUnqueued()
	m.jobDequeued()
	m.memoHit()
	m.jobEnd(m.jobStart())
	if t0 := m.jobStart(); !t0.IsZero() {
		t.Errorf("nil jobStart = %v, want zero time", t0)
	}

	ins := []*model.Instance{gen.Uniform(10, 2, 3)}
	cfg := BatchConfig{Config: Config{Deltas: []float64{1, 2}, Workers: 2}}
	if err := SweepBatch(context.Background(), BatchOf(ins...), cfg, func(BatchResult) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
