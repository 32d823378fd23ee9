package engine

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"reflect"
	"runtime"
	"testing"

	"storagesched/internal/core"
	"storagesched/internal/gen"
	"storagesched/internal/metrics"
	"storagesched/internal/model"
)

// batchInstances is a mixed bag of instance families, large enough
// that jobs from several instances coexist in the pool.
func batchInstances() []*model.Instance {
	var ins []*model.Instance
	for seed := int64(1); seed <= 3; seed++ {
		ins = append(ins,
			gen.Uniform(60, 4, seed),
			gen.EmbeddedCode(80, 8, seed),
			gen.GridBatch(50, 4, seed))
	}
	return ins
}

// collectBatch runs SweepBatch over the instances and returns the
// results in emission order.
func collectBatch(t *testing.T, ins []*model.Instance, cfg BatchConfig) []BatchResult {
	t.Helper()
	var got []BatchResult
	err := SweepBatch(context.Background(), BatchOf(ins...), cfg, func(br BatchResult) error {
		got = append(got, br)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSweepBatchDeterministicAcrossWorkerCounts is the batch analogue
// of the single-instance determinism test: the same instances and grid
// must yield byte-identical per-instance runs and fronts whether the
// shared pool has 1, 4 or NumCPU workers, and each must equal what a
// standalone Sweep produces.
func TestSweepBatchDeterministicAcrossWorkerCounts(t *testing.T) {
	ins := batchInstances()
	grid := testGrid()

	var base []BatchResult
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		got := collectBatch(t, ins, BatchConfig{Config: Config{Deltas: grid, Workers: workers}})
		if len(got) != len(ins) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(ins))
		}
		for i, br := range got {
			if br.Index != i {
				t.Fatalf("workers=%d: result %d has index %d", workers, i, br.Index)
			}
			if br.Err != nil {
				t.Fatalf("workers=%d instance %d: %v", workers, i, br.Err)
			}
		}
		if base == nil {
			base = got
			// The pool-shared batch must agree exactly with one
			// standalone Sweep per instance.
			for i, br := range got {
				solo, err := Sweep(context.Background(), ins[i], Config{Deltas: grid, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(br.Result.Front, solo.Front) {
					t.Errorf("instance %d: batch front %v, standalone %v", i, br.Result.Front, solo.Front)
				}
				if !reflect.DeepEqual(br.Result.Runs, solo.Runs) {
					t.Errorf("instance %d: batch runs differ from standalone Sweep", i)
				}
				if br.Result.Bounds != solo.Bounds {
					t.Errorf("instance %d: bounds %+v, standalone %+v", i, br.Result.Bounds, solo.Bounds)
				}
			}
			continue
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].Result.Front, base[i].Result.Front) {
				t.Errorf("workers=%d instance %d: front %v, want %v",
					workers, i, got[i].Result.Front, base[i].Result.Front)
			}
			if !reflect.DeepEqual(got[i].Result.Runs, base[i].Result.Runs) {
				t.Errorf("workers=%d instance %d: runs differ", workers, i)
			}
		}
	}
}

// TestSweepBatchMaxPendingOne forces the tightest streaming window:
// results must still arrive complete and in order.
func TestSweepBatchMaxPendingOne(t *testing.T) {
	ins := batchInstances()
	got := collectBatch(t, ins, BatchConfig{
		Config:     Config{Deltas: []float64{0.5, 1, 3}, Workers: 3},
		MaxPending: 1,
	})
	if len(got) != len(ins) {
		t.Fatalf("%d results, want %d", len(got), len(ins))
	}
	for i, br := range got {
		if br.Index != i || br.Err != nil || len(br.Result.Front) == 0 {
			t.Fatalf("result %d: index=%d err=%v front=%d", i, br.Index, br.Err, len(br.Result.Front))
		}
	}
}

// TestSweepBatchPerInstanceErrors checks that a bad instance, a nil
// instance, an item-borne source error and a bad override each fail
// alone, in order, without taking down the rest of the batch.
func TestSweepBatchPerInstanceErrors(t *testing.T) {
	good := gen.Uniform(30, 3, 1)
	srcErr := errors.New("unparseable file")
	items := []BatchItem{
		{Instance: good},
		{Instance: model.NewInstance(0, nil, nil)}, // invalid: no processors
		{Instance: nil},
		{Instance: good, Err: srcErr},
		{Instance: good, Override: &Config{}}, // invalid override: empty grid
		{Instance: good},
	}
	seq := func(yield func(BatchItem) bool) {
		for _, it := range items {
			if !yield(it) {
				return
			}
		}
	}
	var got []BatchResult
	err := SweepBatch(context.Background(), seq,
		BatchConfig{Config: Config{Deltas: []float64{1, 3}, Workers: 2}},
		func(br BatchResult) error { got = append(got, br); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("%d results, want %d", len(got), len(items))
	}
	for i, br := range got {
		if br.Index != i {
			t.Errorf("result %d has index %d", i, br.Index)
		}
	}
	if got[0].Err != nil || got[5].Err != nil {
		t.Errorf("good instances failed: %v, %v", got[0].Err, got[5].Err)
	}
	for _, i := range []int{1, 2, 3, 4} {
		if got[i].Err == nil {
			t.Errorf("item %d: expected error, got result %+v", i, got[i].Result)
		}
		if got[i].Result != nil {
			t.Errorf("item %d: non-nil result alongside error", i)
		}
	}
	if !errors.Is(got[3].Err, srcErr) {
		t.Errorf("item 3: error %v does not wrap the source error", got[3].Err)
	}
	if !reflect.DeepEqual(got[0].Result.Front, got[5].Result.Front) {
		t.Errorf("identical instances produced different fronts")
	}
}

// TestSweepBatchTagsEchoed checks item tags travel to their results —
// including on per-item failures — so streaming producers can label
// outputs without sharing state across the producer goroutine.
func TestSweepBatchTagsEchoed(t *testing.T) {
	items := []BatchItem{
		{Instance: gen.Uniform(10, 2, 1), Tag: "alpha"},
		{Err: errors.New("bad source"), Tag: "beta"},
		{Instance: gen.Uniform(10, 2, 2)}, // no tag
	}
	seq := func(yield func(BatchItem) bool) {
		for _, it := range items {
			if !yield(it) {
				return
			}
		}
	}
	var tags []any
	err := SweepBatch(context.Background(), seq,
		BatchConfig{Config: Config{Deltas: []float64{1}, SkipRLS: true}},
		func(br BatchResult) error { tags = append(tags, br.Tag); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tags, []any{"alpha", "beta", nil}) {
		t.Errorf("tags = %v", tags)
	}
}

// TestSweepBatchOverrides checks per-item Config overrides take effect
// and match a standalone Sweep with the same config.
func TestSweepBatchOverrides(t *testing.T) {
	in := gen.Uniform(40, 4, 2)
	full := Config{Deltas: []float64{1, 3}}
	sboOnly := Config{Deltas: []float64{1, 3}, SkipRLS: true}
	items := []BatchItem{
		{Instance: in},
		{Instance: in, Override: &sboOnly},
	}
	seq := func(yield func(BatchItem) bool) {
		for _, it := range items {
			if !yield(it) {
				return
			}
		}
	}
	var got []BatchResult
	err := SweepBatch(context.Background(), seq, BatchConfig{Config: full},
		func(br BatchResult) error { got = append(got, br); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d results, want 2", len(got))
	}
	// Base config: SBO at both deltas plus the tie-breaks at δ=3.
	if want := 2 + len(DefaultTies); len(got[0].Result.Runs) != want {
		t.Errorf("base config: %d runs, want %d", len(got[0].Result.Runs), want)
	}
	if len(got[1].Result.Runs) != 2 {
		t.Errorf("override: %d runs, want 2 (SBO only)", len(got[1].Result.Runs))
	}
	solo, err := Sweep(context.Background(), in, sboOnly)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[1].Result.Runs, solo.Runs) {
		t.Errorf("override runs differ from standalone Sweep with the same config")
	}
}

// TestSweepBatchCancelledMidBatch cancels the context from the test
// hook partway through the second instance: SweepBatch must return
// ctx.Err() cleanly without emitting a partial instance.
func TestSweepBatchCancelledMidBatch(t *testing.T) {
	ins := batchInstances()
	grid := testGrid()
	jobsPerInstance := len(grid) // SkipRLS below: one SBO job per grid point

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	testHookAfterRun = func() {
		done++
		if done == jobsPerInstance+2 {
			cancel()
		}
	}
	defer func() { testHookAfterRun = nil }()

	emitted := 0
	// One worker so the hook counter needs no synchronization and the
	// cancellation point is deterministic.
	err := SweepBatch(ctx, BatchOf(ins...),
		BatchConfig{Config: Config{Deltas: grid, Workers: 1, SkipRLS: true}},
		func(br BatchResult) error {
			if br.Err != nil {
				t.Errorf("instance %d: %v", br.Index, br.Err)
			}
			emitted++
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if emitted != 1 {
		t.Fatalf("emitted %d instances, want exactly the one completed before cancellation", emitted)
	}
	if done >= len(ins)*jobsPerInstance {
		t.Fatalf("batch ran all %d jobs despite cancellation", done)
	}
}

func TestSweepBatchCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := SweepBatch(ctx, BatchOf(gen.Uniform(20, 2, 1)),
		BatchConfig{Config: Config{Deltas: []float64{1}}},
		func(BatchResult) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestSweepBatchEmitErrorAborts checks a callback error stops the
// batch immediately and is returned verbatim.
func TestSweepBatchEmitErrorAborts(t *testing.T) {
	ins := batchInstances()
	stop := errors.New("enough")
	calls := 0
	err := SweepBatch(context.Background(), BatchOf(ins...),
		BatchConfig{Config: Config{Deltas: []float64{1, 3}, Workers: 2}},
		func(BatchResult) error {
			calls++
			if calls == 2 {
				return stop
			}
			return nil
		})
	if !errors.Is(err, stop) {
		t.Fatalf("got %v, want the emit error", err)
	}
	if calls != 2 {
		t.Fatalf("emit called %d times, want 2", calls)
	}
}

func TestSweepBatchEmptyAndInvalidInputs(t *testing.T) {
	ctx := context.Background()
	cfg := BatchConfig{Config: Config{Deltas: []float64{1}}}

	calls := 0
	if err := SweepBatch(ctx, BatchOf(), cfg, func(BatchResult) error { calls++; return nil }); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if calls != 0 {
		t.Fatalf("empty batch emitted %d results", calls)
	}

	if err := SweepBatch(ctx, nil, cfg, func(BatchResult) error { return nil }); err == nil {
		t.Error("nil sequence accepted")
	}
	var seq iter.Seq[BatchItem] = BatchOf(gen.Uniform(5, 2, 1))
	if err := SweepBatch(ctx, seq, cfg, nil); err == nil {
		t.Error("nil emit callback accepted")
	}
}

// TestSweepBatchStreamsManyInstances pushes a four-figure instance
// count through a tiny window as a bounded-memory smoke test: the
// sequence is generated lazily and every front must stream out in
// order.
func TestSweepBatchStreamsManyInstances(t *testing.T) {
	const total = 1200
	seq := func(yield func(BatchItem) bool) {
		for i := 0; i < total; i++ {
			if !yield(BatchItem{Instance: gen.Uniform(8, 2, int64(i))}) {
				return
			}
		}
	}
	next := 0
	err := SweepBatch(context.Background(), seq,
		BatchConfig{Config: Config{Deltas: []float64{1}, SkipRLS: true, Workers: 4}, MaxPending: 2},
		func(br BatchResult) error {
			if br.Err != nil {
				return fmt.Errorf("instance %d: %w", br.Index, br.Err)
			}
			if br.Index != next {
				return fmt.Errorf("emitted index %d, want %d", br.Index, next)
			}
			next++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if next != total {
		t.Fatalf("emitted %d instances, want %d", next, total)
	}
}

// TestSweepBatchPreparesOncePerInstance counts preparations — every
// job but the one that builds its item's prepared state is a memo hit,
// whatever the worker count — and checks every run of the instance
// against a direct call, so the one memoized core.SBOPrepared serves
// them all.
func TestSweepBatchPreparesOncePerInstance(t *testing.T) {
	in := gen.Uniform(50, 4, 3)
	met := NewMetrics(metrics.NewRegistry())
	got := collectBatch(t, []*model.Instance{in},
		BatchConfig{Config: Config{Deltas: []float64{0.5, 1, 2, 4}, SkipRLS: true, Workers: 4}, Metrics: met})
	if len(got) != 1 || got[0].Err != nil {
		t.Fatalf("unexpected batch outcome: %+v", got)
	}
	if prepares := met.jobs.Value() - met.memoHits.Value(); prepares != 1 {
		t.Errorf("%d preparations, want 1", prepares)
	}
	for _, r := range got[0].Result.Runs {
		direct, err := core.SBOWithLPT(in, r.Delta)
		if err != nil {
			t.Fatal(err)
		}
		if r.Value.Cmax != direct.Cmax || r.Value.Mmax != direct.Mmax {
			t.Errorf("%s: batch %v, direct (%d,%d)", r.Label(), r.Value, direct.Cmax, direct.Mmax)
		}
	}
}
