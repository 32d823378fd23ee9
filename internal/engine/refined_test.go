package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"storagesched/internal/cache"
	"storagesched/internal/gen"
	"storagesched/internal/metrics"
	"storagesched/internal/model"
)

// fixedPlanner plans the same refinement grid for every item.
func fixedPlanner(grid ...float64) Planner {
	return func(*Result, bool) ([]float64, error) { return grid, nil }
}

// collectRefined runs SweepBatchRefined over the instances and returns
// the results in emission order.
func collectRefined(t *testing.T, ins []*model.Instance, cfg BatchConfig, plan Planner) []BatchResult {
	t.Helper()
	var got []BatchResult
	err := SweepBatchRefined(context.Background(), BatchOf(ins...), cfg, plan, func(br BatchResult) error {
		got = append(got, br)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSweepBatchRefinedMergesPhases: an item's merged Result is its
// coarse sweep's runs followed by a sweep of the planned grid, with
// the front assembled over both — whether the planned grid needs
// prepared state the coarse phase never built (RLS points above a
// sub-2 coarse grid) or not — and each item is prepared once when the
// coarse preparation covers the planned grid.
func TestSweepBatchRefinedMergesPhases(t *testing.T) {
	ins := batchInstances()[:4]
	for _, c := range []struct {
		name          string
		coarse, fine  []float64
		preparesPerIt int64
	}{
		{"same-families", []float64{0.5, 2, 8}, []float64{1, 4}, 1},
		{"adds-rls", []float64{0.5, 1}, []float64{3, 5}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			cfg := BatchConfig{Config: Config{Deltas: c.coarse, Workers: 3}, Metrics: NewMetrics(reg)}
			got := collectRefined(t, ins, cfg, fixedPlanner(c.fine...))
			if len(got) != len(ins) {
				t.Fatalf("emitted %d results, want %d", len(got), len(ins))
			}
			for i, br := range got {
				if br.Index != i || br.Err != nil || br.CacheHit {
					t.Fatalf("result %d: index %d, err %v, hit %v", i, br.Index, br.Err, br.CacheHit)
				}
				coarse, err := Sweep(context.Background(), ins[i], Config{Deltas: c.coarse})
				if err != nil {
					t.Fatal(err)
				}
				fine, err := Sweep(context.Background(), ins[i], Config{Deltas: c.fine})
				if err != nil {
					t.Fatal(err)
				}
				runs := append(append([]Run{}, coarse.Runs...), fine.Runs...)
				want := &Result{Bounds: coarse.Bounds, Runs: runs, Front: AssembleFront(runs)}
				if !reflect.DeepEqual(br.Result, want) {
					t.Errorf("item %d: merged result differs from coarse + planned sweeps", i)
				}
			}
			prepares := cfg.Metrics.jobs.Value() - cfg.Metrics.memoHits.Value()
			if want := c.preparesPerIt * int64(len(ins)); prepares != want {
				t.Errorf("%d preparations, want %d", prepares, want)
			}
		})
	}
}

// TestSweepBatchRefinedCache: both phases' entries are written when an
// item is emitted, so a second run is served from the cache in both
// phases, flags every item CacheHit and reproduces the fronts.
func TestSweepBatchRefinedCache(t *testing.T) {
	ins := batchInstances()[:3]
	c, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := BatchConfig{Config: Config{Deltas: []float64{0.5, 2, 8}, Workers: 2}, Cache: c}
	plan := fixedPlanner(1, 4)
	cold := collectRefined(t, ins, cfg, plan)
	if st := c.Stats(); st.Puts != int64(2*len(ins)) {
		t.Errorf("cold run wrote %d entries, want %d (two phases per item)", st.Puts, 2*len(ins))
	}
	warm := collectRefined(t, ins, cfg, plan)
	for i, br := range warm {
		if cold[i].CacheHit || !br.CacheHit {
			t.Errorf("item %d: cold hit %v, warm hit %v", i, cold[i].CacheHit, br.CacheHit)
		}
		if !reflect.DeepEqual(br.Result.Front, cold[i].Result.Front) || len(br.Result.Runs) != len(cold[i].Result.Runs) {
			t.Errorf("item %d: warm result differs from the cold one", i)
		}
	}
}

// TestSweepBatchRefinedFailures: a refinement phase that cannot run
// fails its item (wrapped, with no Result), a planner error aborts the
// batch, and a nil planner is rejected.
func TestSweepBatchRefinedFailures(t *testing.T) {
	ins := batchInstances()[:2]
	ctx := context.Background()
	// SkipSBO leaves a sub-2 planned grid without runs.
	cfg := BatchConfig{Config: Config{Deltas: []float64{2, 4}, SkipSBO: true, Workers: 2}}
	got := collectRefined(t, ins, cfg, fixedPlanner(0.5))
	for i, br := range got {
		if br.Err == nil || br.Result != nil || !strings.Contains(br.Err.Error(), "refinement pass for item") {
			t.Errorf("item %d: err %v, result %v; want a wrapped refinement failure", i, br.Err, br.Result)
		}
	}

	boom := errors.New("no plan")
	calls := 0
	err := SweepBatchRefined(ctx, BatchOf(ins...), cfg, func(*Result, bool) ([]float64, error) { return nil, boom },
		func(BatchResult) error { calls++; return nil })
	if !errors.Is(err, boom) || calls != 0 {
		t.Errorf("planner error: got %v after %d emits, want %v before any", err, calls, boom)
	}

	if err := SweepBatchRefined(ctx, BatchOf(ins...), cfg, nil, func(BatchResult) error { return nil }); err == nil {
		t.Error("nil planner accepted")
	}
}

// TestSweepBatchRefinedCancelQuiesce cancels a refining batch on a
// shared one-worker pool right after the first refinement job, while
// the feeder still holds the rest: SweepBatchRefined returns ctx.Err()
// without emitting the item, the pool closes cleanly afterwards, and
// the goroutine count settles back to where it started.
func TestSweepBatchRefinedCancelQuiesce(t *testing.T) {
	in := gen.Uniform(60, 4, 1)
	coarse := []float64{0.5, 1, 2}
	coarseJobs := len(mustJobs(t, Config{Deltas: coarse}))
	base := runtime.NumGoroutine()
	pool := NewPool(1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0 // one worker: the hook runs on a single goroutine
	testHookAfterRun = func() {
		done++
		if done == coarseJobs+1 {
			cancel()
		}
	}
	emitted := 0
	err := SweepBatchRefined(ctx, BatchOf(in), BatchConfig{Config: Config{Deltas: coarse}, Pool: pool},
		fixedPlanner(3, 4, 5, 6, 7), func(BatchResult) error { emitted++; return nil })
	pool.Close()
	testHookAfterRun = nil
	if !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
	if emitted != 0 {
		t.Errorf("emitted %d results, want none", emitted)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, want at most %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func mustJobs(t *testing.T, cfg Config) []job {
	t.Helper()
	jobs, _, err := buildJobs(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}
