package engine

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"storagesched/internal/bounds"
	"storagesched/internal/dag"
	"storagesched/internal/gen"
	"storagesched/internal/model"
)

// graphGrid is the test δ-grid for graph sweeps; entries below 2 are
// silently skipped (RLS territory only), matching the instance rule.
func graphGrid() []float64 { return []float64{0.5, 2, 2.5, 3, 4.75, 8} }

// mixedItems interleaves DAG families with independent-task instances,
// so jobs of both kinds coexist in the shared pool.
func mixedItems() []BatchItem {
	return []BatchItem{
		{Graph: gen.LayeredDAG(4, 10, 4, 1)},
		{Instance: gen.Uniform(60, 4, 1)},
		{Graph: gen.ForkJoin(6, 5, 4, 2)},
		{Graph: gen.ErdosRenyiDAG(4, 40, 0.15, 3)},
		{Instance: gen.EmbeddedCode(80, 8, 2)},
		{Graph: gen.Diamond(5, 6, 4)},
	}
}

func itemsSeq(items []BatchItem) func(yield func(BatchItem) bool) {
	return func(yield func(BatchItem) bool) {
		for _, it := range items {
			if !yield(it) {
				return
			}
		}
	}
}

// TestSweepBatchMixedDeterministicAcrossWorkerCounts is the graph-era
// acceptance test: a mixed stream of graphs and instances must yield
// byte-identical per-item runs and fronts at 1, 4 and NumCPU workers,
// and every graph run must agree with a standalone core.RLS call at
// the same δ and tie-break, whose witness is valid.
func TestSweepBatchMixedDeterministicAcrossWorkerCounts(t *testing.T) {
	items := mixedItems()
	var base []BatchResult
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		var got []BatchResult
		err := SweepBatch(context.Background(), itemsSeq(items),
			BatchConfig{Config: Config{Deltas: graphGrid(), Workers: workers}},
			func(br BatchResult) error { got = append(got, br); return nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(items) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(items))
		}
		for i, br := range got {
			if br.Index != i || br.Err != nil {
				t.Fatalf("workers=%d item %d: index=%d err=%v", workers, i, br.Index, br.Err)
			}
		}
		if base == nil {
			base = got
			continue
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].Result.Runs, base[i].Result.Runs) {
				t.Errorf("workers=%d item %d: runs differ", workers, i)
			}
			if !reflect.DeepEqual(got[i].Result.Front, base[i].Result.Front) {
				t.Errorf("workers=%d item %d: front %v, want %v",
					workers, i, got[i].Result.Front, base[i].Result.Front)
			}
			if got[i].Result.Bounds != base[i].Result.Bounds {
				t.Errorf("workers=%d item %d: bounds differ", workers, i)
			}
		}
	}

	// Graph runs must have the values of direct core.RLS calls, and
	// instance items must be unaffected by the graphs sharing the pool.
	for i, br := range base {
		if items[i].Graph != nil {
			g := items[i].Graph
			rec, err := bounds.ForGraph(g)
			if err != nil {
				t.Fatal(err)
			}
			if br.Result.Bounds != rec {
				t.Errorf("item %d: bounds %+v, want memoized ForGraph %+v", i, br.Result.Bounds, rec)
			}
			for _, r := range br.Result.Runs {
				if r.Algorithm != AlgRLS {
					t.Fatalf("item %d: graph sweep produced non-RLS run %s", i, r.Label())
				}
				if r.Err != nil {
					t.Fatalf("item %d %s: %v", i, r.Label(), r.Err)
				}
			}
			if checkWitnesses(t, items[i], Config{Deltas: graphGrid()}, br.Result) != len(br.Result.Runs) {
				t.Errorf("item %d: not every graph run checked", i)
			}
		} else {
			solo, err := Sweep(context.Background(), items[i].Instance,
				Config{Deltas: graphGrid(), Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(br.Result.Runs, solo.Runs) {
				t.Errorf("item %d: instance runs differ from standalone Sweep", i)
			}
		}
	}
}

// TestSweepGraphMatchesBatch checks the single-graph wrapper streams
// through the same path as a one-item batch, and the front is the
// non-dominated hull of the RLS runs, sorted by Cmax.
func TestSweepGraphMatchesBatch(t *testing.T) {
	g := gen.LayeredDAG(6, 12, 4, 7)
	cfg := Config{Deltas: graphGrid()}
	res, err := SweepGraph(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// δ=0.5 contributes nothing; the five δ ≥ 2 points each run all ties.
	if want := 5 * len(DefaultTies); len(res.Runs) != want {
		t.Fatalf("%d runs, want %d", len(res.Runs), want)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	for i, p := range res.Front {
		if i > 0 {
			prev := res.Front[i-1].Value
			if p.Value.Cmax <= prev.Cmax || p.Value.Mmax >= prev.Mmax {
				t.Errorf("front not strictly improving at %d: %v then %v", i, prev, p.Value)
			}
		}
		run := res.Runs[p.RunIndex]
		if run.Err != nil || run.Value != p.Value {
			t.Errorf("front point %d: witness run %d does not achieve %v", i, p.RunIndex, p.Value)
		}
	}
	// Corollary 2: every run respects Mmax ≤ ⌊δ·LB⌋.
	checkWitnesses(t, BatchItem{Graph: g}, cfg, res)
}

// TestSweepGraphConfigValidation covers the graph-specific config
// errors: nothing at δ ≥ 2, SkipRLS, cyclic graphs, and the
// both-kinds-set item; each must fail alone inside a batch.
func TestSweepGraphConfigValidation(t *testing.T) {
	ctx := context.Background()
	g := gen.OutTree(3, 10, 2, 1)
	if _, err := SweepGraph(ctx, g, Config{Deltas: []float64{0.5, 1}}); err == nil {
		t.Error("grid without delta >= 2 accepted for a graph")
	}
	if _, err := SweepGraph(ctx, g, Config{Deltas: []float64{3}, SkipRLS: true}); err == nil {
		t.Error("SkipRLS accepted for a graph")
	}
	cyc := dag.New(2, []model.Time{1, 1}, []model.Mem{0, 0})
	cyc.AddEdge(0, 1)
	cyc.AddEdge(1, 0)
	items := []BatchItem{
		{Graph: gen.Chain(2, 5, 1)},
		{Graph: cyc},
		{Instance: gen.Uniform(10, 2, 1), Graph: gen.Chain(2, 3, 2)},
		{Graph: gen.Chain(2, 4, 3)},
	}
	var got []BatchResult
	err := SweepBatch(ctx, itemsSeq(items),
		BatchConfig{Config: Config{Deltas: []float64{2, 4}, Workers: 2}},
		func(br BatchResult) error { got = append(got, br); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("%d results, want %d", len(got), len(items))
	}
	if got[0].Err != nil || got[3].Err != nil {
		t.Errorf("good graphs failed: %v, %v", got[0].Err, got[3].Err)
	}
	if got[1].Err == nil {
		t.Error("cyclic graph swept without error")
	}
	if got[2].Err == nil {
		t.Error("item with both instance and graph accepted")
	}
}

// TestSweepGraphChainFront sanity-checks objective accounting on a
// fully sequential workload: a chain's Cmax is Σp at every δ, so the
// front collapses to single-point (Σp, min over δ of Mmax).
func TestSweepGraphChainFront(t *testing.T) {
	g := gen.Chain(4, 12, 5)
	res, err := SweepGraph(context.Background(), g, Config{Deltas: []float64{2, 3, 6}})
	if err != nil {
		t.Fatal(err)
	}
	want := g.TotalWork()
	for _, r := range res.Runs {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Label(), r.Err)
		}
		if r.Value.Cmax != want {
			t.Errorf("%s: chain Cmax = %d, want %d", r.Label(), r.Value.Cmax, want)
		}
	}
	if len(res.Front) != 1 {
		t.Fatalf("chain front has %d points, want 1: %v", len(res.Front), res.Front)
	}
}
