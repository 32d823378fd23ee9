package refine

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"reflect"
	"runtime"
	"testing"
	"time"

	"storagesched/internal/cache"
	"storagesched/internal/engine"
	"storagesched/internal/gen"
	"storagesched/internal/metrics"
)

// adaptiveWorkload is the mixed batch the driver tests sweep: two
// instances whose fronts bend, one graph, and one per-item override.
func adaptiveWorkload() []engine.BatchItem {
	override := engine.Config{Deltas: []float64{0.5, 2, 8}}
	return []engine.BatchItem{
		{Instance: gen.Uniform(200, 16, 1)},
		{Graph: gen.ForkJoin(8, 6, 10, 1), Override: &override},
		{Instance: gen.EmbeddedCode(200, 16, 1)},
	}
}

func sliceSeq(items []engine.BatchItem) iter.Seq[engine.BatchItem] {
	return engine.BatchOfItems(items...)
}

func adaptiveConfig(workers int) engine.BatchConfig {
	grid, err := engine.GeometricGrid(0.0625, 256, 6)
	if err != nil {
		panic(err)
	}
	return engine.BatchConfig{Config: engine.Config{Deltas: grid, Workers: workers}}
}

func collectAdaptive(t *testing.T, items []engine.BatchItem, cfg engine.BatchConfig, rcfg Config) []engine.BatchResult {
	t.Helper()
	var out []engine.BatchResult
	err := SweepBatchAdaptive(context.Background(), sliceSeq(items), cfg, rcfg, func(br engine.BatchResult) error {
		out = append(out, br)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAdaptiveDeterministicAcrossWorkers(t *testing.T) {
	items := adaptiveWorkload()
	rcfg := Config{Gap: 0.05, MaxPoints: 12}
	base := collectAdaptive(t, items, adaptiveConfig(1), rcfg)
	if len(base) != len(items) {
		t.Fatalf("emitted %d results, want %d", len(base), len(items))
	}
	for i, br := range base {
		if br.Index != i {
			t.Errorf("result %d has index %d, want input order", i, br.Index)
		}
		if br.Err != nil {
			t.Errorf("item %d failed: %v", i, br.Err)
		}
	}
	for _, workers := range []int{4, runtime.NumCPU()} {
		got := collectAdaptive(t, items, adaptiveConfig(workers), rcfg)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("workers=%d: adaptive results differ from the single-worker run", workers)
		}
	}
}

func TestAdaptiveMergePreservesCoarseRunsAndDominates(t *testing.T) {
	items := adaptiveWorkload()
	cfg := adaptiveConfig(0)
	var coarse []engine.BatchResult
	if err := engine.SweepBatch(context.Background(), sliceSeq(items), cfg, func(br engine.BatchResult) error {
		coarse = append(coarse, br)
		return br.Err
	}); err != nil {
		t.Fatal(err)
	}
	merged := collectAdaptive(t, items, cfg, Config{Gap: 0.05, MaxPoints: 12})

	refinedSomething := false
	for i := range items {
		c, m := coarse[i].Result, merged[i].Result
		if len(m.Runs) < len(c.Runs) {
			t.Fatalf("item %d: merged %d runs < coarse %d", i, len(m.Runs), len(c.Runs))
		}
		if !reflect.DeepEqual(m.Runs[:len(c.Runs)], c.Runs) {
			t.Errorf("item %d: coarse runs are not a prefix of the merged runs", i)
		}
		if len(m.Runs) > len(c.Runs) {
			refinedSomething = true
		}
		if !reflect.DeepEqual(m.Bounds, c.Bounds) {
			t.Errorf("item %d: merged bounds differ from coarse", i)
		}
		// Pointwise weak dominance: refinement may only improve the
		// front.
		for _, cp := range c.Front {
			ok := false
			for _, mp := range m.Front {
				if mp.Value.WeaklyDominates(cp.Value) {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("item %d: coarse front point %v not dominated by the adaptive front", i, cp.Value)
			}
		}
	}
	if !refinedSomething {
		t.Error("no item was refined; the workload should exercise the second pass")
	}
}

func TestAdaptiveNoFlaggedGapsEqualsCoarse(t *testing.T) {
	items := adaptiveWorkload()
	cfg := adaptiveConfig(0)
	var coarse []engine.BatchResult
	if err := engine.SweepBatch(context.Background(), sliceSeq(items), cfg, func(br engine.BatchResult) error {
		coarse = append(coarse, br)
		return br.Err
	}); err != nil {
		t.Fatal(err)
	}
	// A threshold no finite gap can exceed: the second pass must plan
	// nothing and the merged stream must equal the coarse one.
	got := collectAdaptive(t, items, cfg, Config{Gap: 0.999})
	if !reflect.DeepEqual(coarse, got) {
		t.Error("with no flagged gaps, adaptive results differ from plain SweepBatch")
	}
}

func TestAdaptiveItemErrorPassesThrough(t *testing.T) {
	boom := errors.New("bad source")
	items := []engine.BatchItem{
		{Instance: gen.Uniform(20, 3, 1)},
		{Err: boom, Tag: "poisoned"},
	}
	got := collectAdaptive(t, items, adaptiveConfig(0), Config{})
	if len(got) != 2 {
		t.Fatalf("emitted %d results, want 2", len(got))
	}
	if got[0].Err != nil {
		t.Errorf("good item failed: %v", got[0].Err)
	}
	if !errors.Is(got[1].Err, boom) {
		t.Errorf("poisoned item error = %v, want %v", got[1].Err, boom)
	}
	if got[1].Tag != "poisoned" {
		t.Errorf("poisoned item tag = %v, not echoed", got[1].Tag)
	}
}

func TestAdaptiveArgumentErrors(t *testing.T) {
	ctx := context.Background()
	emit := func(engine.BatchResult) error { return nil }
	cfg := adaptiveConfig(0)
	if err := SweepBatchAdaptive(ctx, nil, cfg, Config{}, emit); err == nil {
		t.Error("nil sequence accepted")
	}
	if err := SweepBatchAdaptive(ctx, sliceSeq(nil), cfg, Config{}, nil); err == nil {
		t.Error("nil emit accepted")
	}
	if err := SweepBatchAdaptive(ctx, sliceSeq(nil), cfg, Config{Gap: -1}, emit); err == nil {
		t.Error("invalid refine config accepted")
	}
}

func TestAdaptiveEmitErrorAborts(t *testing.T) {
	boom := errors.New("stop")
	err := SweepBatchAdaptive(context.Background(), sliceSeq(adaptiveWorkload()), adaptiveConfig(0), Config{},
		func(engine.BatchResult) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("emit error not propagated: %v", err)
	}
}

func TestAdaptiveCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := SweepBatchAdaptive(ctx, sliceSeq(adaptiveWorkload()), adaptiveConfig(0), Config{},
		func(engine.BatchResult) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled adaptive sweep returned %v, want context.Canceled", err)
	}
}

// The cache contract of the two-pass pipeline: the coarse pass shares
// entries with plain SweepBatch runs of the same grid, refined entries
// key on their own override fingerprint, and a fully warm adaptive run
// flags CacheHit on every item while reproducing the fronts exactly.
func TestAdaptiveCacheInteraction(t *testing.T) {
	items := adaptiveWorkload()
	cfg := adaptiveConfig(0)
	c, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = c

	// Warm the coarse entries with a plain batch (as a fixed-grid
	// production run would).
	if err := engine.SweepBatch(context.Background(), sliceSeq(items), cfg, func(br engine.BatchResult) error {
		if br.CacheHit {
			return fmt.Errorf("item %d hit an empty cache", br.Index)
		}
		return br.Err
	}); err != nil {
		t.Fatal(err)
	}
	warm := c.Stats()

	// First adaptive run: the coarse pass must be served entirely from
	// the warm entries; the refinement pass is cold.
	rcfg := Config{Gap: 0.05, MaxPoints: 12}
	first := collectAdaptive(t, items, cfg, rcfg)
	afterFirst := c.Stats()
	if got := afterFirst.Hits - warm.Hits; got < int64(len(items)) {
		t.Errorf("adaptive coarse pass hit %d warm entries, want at least %d", got, len(items))
	}

	// Second adaptive run: both passes warm — every item is a cache
	// hit and the merged results are identical.
	second := collectAdaptive(t, items, cfg, rcfg)
	for i, br := range second {
		if !br.CacheHit {
			t.Errorf("item %d: fully warm adaptive run not flagged CacheHit", i)
		}
		// A cached Result has a computed one's shape: no run of these
		// items fails, so the two are equal field for field.
		if !reflect.DeepEqual(br.Result, first[i].Result) {
			t.Errorf("item %d: warm result differs from computed one", i)
		}
	}
	afterSecond := c.Stats()
	if afterSecond.Misses != afterFirst.Misses {
		t.Errorf("fully warm adaptive run missed %d times", afterSecond.Misses-afterFirst.Misses)
	}
}

// prepares is the number of items a metered batch prepared: every job
// but the one that builds its item's prepared state counts as a memo
// hit.
func prepares(reg *metrics.Registry) int64 {
	return reg.Counter("sched_engine_jobs_total", "").Value() -
		reg.Counter("sched_engine_prepared_memo_hits_total", "").Value()
}

// TestAdaptiveStreams: an item's merged front leaves while the item
// sequence is still being read. The sequence yields item 0 and then
// waits for item 0's front before yielding more, so a pipeline that
// drains the sequence before emitting times out here. The streamed
// fronts equal an ordinary run's, and each item is prepared exactly
// once — its refinement phase reuses the coarse phase's prepared
// state.
func TestAdaptiveStreams(t *testing.T) {
	items := adaptiveWorkload()
	rcfg := Config{Gap: 0.05, MaxPoints: 12}
	want := collectAdaptive(t, items, adaptiveConfig(2), rcfg)
	var coarse []engine.BatchResult
	if err := engine.SweepBatch(context.Background(), sliceSeq(items), adaptiveConfig(2), func(br engine.BatchResult) error {
		coarse = append(coarse, br)
		return br.Err
	}); err != nil {
		t.Fatal(err)
	}
	refined := 0
	for i := range items {
		if len(want[i].Result.Runs) > len(coarse[i].Result.Runs) {
			refined++
		}
	}
	if refined == 0 {
		t.Fatal("no item was refined; the workload should exercise the refinement phase")
	}

	for _, resident := range []bool{false, true} {
		t.Run(fmt.Sprintf("resident=%v", resident), func(t *testing.T) {
			reg := metrics.NewRegistry()
			cfg := adaptiveConfig(2)
			cfg.Metrics = engine.NewMetrics(reg)
			if resident {
				pool := engine.NewPool(2)
				defer pool.Close()
				cfg.Pool = pool
			}
			first := make(chan struct{})
			seq := func(yield func(engine.BatchItem) bool) {
				for i, item := range items {
					if !yield(item) {
						return
					}
					if i != 0 {
						continue
					}
					select {
					case <-first:
					case <-time.After(10 * time.Second):
						t.Error("item 0's front was not emitted while the sequence waited for it")
						return
					}
				}
			}
			var got []engine.BatchResult
			err := SweepBatchAdaptive(context.Background(), seq, cfg, rcfg, func(br engine.BatchResult) error {
				if br.Index == 0 {
					close(first)
				}
				got = append(got, br)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("streamed adaptive results differ from an ordinary run's")
			}
			if n := prepares(reg); n != int64(len(items)) {
				t.Errorf("%d preparations for %d items (%d refined), want one per item", n, len(items), refined)
			}
		})
	}
}

// TestAdaptiveCancelQuiesce cancels an adaptive sweep on a shared pool
// once its refinement phase is under way, with refinement jobs queued
// behind the pool's one busy worker: the sweep returns ctx.Err()
// without emitting a partial front, the pool then closes cleanly (no
// batch goroutine is left to send on its closed job channel), and the
// goroutine count settles back to where it started. The engine's
// TestSweepBatchRefinedCancelQuiesce pins the same cancellation point
// deterministically.
func TestAdaptiveCancelQuiesce(t *testing.T) {
	items := []engine.BatchItem{{Instance: gen.Uniform(400, 16, 1)}}
	rcfg := Config{Gap: 0.01, MaxPoints: 64}
	cfg := adaptiveConfig(1)
	full := collectAdaptive(t, items, cfg, rcfg)
	// The coarse phase runs fewer jobs than it has runs (each BLevel
	// run is a copy of the LPT one), so its job count, not its run
	// count, marks where the refinement phase starts.
	var coarseRuns int64
	coarseReg := metrics.NewRegistry()
	coarseCfg := cfg
	coarseCfg.Metrics = engine.NewMetrics(coarseReg)
	if err := engine.SweepBatch(context.Background(), sliceSeq(items), coarseCfg, func(br engine.BatchResult) error {
		if br.Err == nil {
			coarseRuns = int64(len(br.Result.Runs))
		}
		return br.Err
	}); err != nil {
		t.Fatal(err)
	}
	coarseJobs := coarseReg.Counter("sched_engine_jobs_total", "").Value()
	if int64(len(full[0].Result.Runs)) < coarseRuns+100 {
		t.Fatalf("%d refined runs; the item should refine at length", int64(len(full[0].Result.Runs))-coarseRuns)
	}

	base := runtime.NumGoroutine()
	pool := engine.NewPool(1)
	reg := metrics.NewRegistry()
	cfg.Pool = pool
	cfg.Metrics = engine.NewMetrics(reg)
	jobs := reg.Counter("sched_engine_jobs_total", "")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seq := func(yield func(engine.BatchItem) bool) {
		if !yield(items[0]) {
			return
		}
		// Cancel once the first refinement job has run: the feeder is
		// then handing the rest, one by one, to the busy worker.
		deadline := time.Now().Add(10 * time.Second)
		for jobs.Value() <= coarseJobs {
			if time.Now().After(deadline) {
				t.Error("the refinement phase never started")
				break
			}
			runtime.Gosched()
		}
		cancel()
	}
	var emitted []engine.BatchResult
	err := SweepBatchAdaptive(ctx, seq, cfg, rcfg, func(br engine.BatchResult) error {
		emitted = append(emitted, br)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled adaptive sweep returned %v, want context.Canceled", err)
	}
	// The refinement phase outlasts the poll above by far, so the item
	// is all but certainly cut short; whatever is emitted must be
	// whole.
	for _, br := range emitted {
		if !reflect.DeepEqual(br, full[br.Index]) {
			t.Errorf("item %d: a partial front was emitted", br.Index)
		}
	}
	if len(emitted) != 0 {
		t.Logf("the refinement phase finished before the cancellation landed")
	}

	pool.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, want at most the %d before the sweep", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
