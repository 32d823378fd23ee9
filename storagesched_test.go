package storagesched

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// sweepWitness recomputes the assignment of a default-config sweep run
// on an instance — runs carry values only — and requires it to be
// valid and to achieve the run's value.
func sweepWitness(t *testing.T, in *Instance, run SweepRun) Assignment {
	t.Helper()
	var a Assignment
	if run.Algorithm == SweepSBO {
		res, err := SBOWithLPT(in, run.Delta)
		if err != nil {
			t.Fatalf("%s: %v", run.Label(), err)
		}
		a = res.Assignment
	} else {
		res, err := RLSIndependent(in, run.Delta, run.Tie)
		if err != nil {
			t.Fatalf("%s: %v", run.Label(), err)
		}
		a = res.Schedule.Assignment()
	}
	if err := in.ValidateAssignment(a); err != nil {
		t.Fatalf("witness of %s invalid: %v", run.Label(), err)
	}
	if got := in.Eval(a); got != run.Value {
		t.Fatalf("witness of %s evaluates to %v, run value %v", run.Label(), got, run.Value)
	}
	return a
}

// The facade is exercised end to end the way README's quickstart does.
func TestFacadeQuickstart(t *testing.T) {
	in := NewInstance(4,
		[]Time{9, 4, 6, 2, 7, 3, 8, 5},
		[]Mem{3, 8, 1, 5, 2, 9, 4, 6})
	res, err := SBOWithLPT(in, 1.0)
	if err != nil {
		t.Fatalf("SBOWithLPT: %v", err)
	}
	if err := in.ValidateAssignment(res.Assignment); err != nil {
		t.Fatalf("assignment invalid: %v", err)
	}
	if float64(res.Cmax) > 2*float64(res.C) || (res.M > 0 && float64(res.Mmax) > 2*float64(res.M)) {
		t.Errorf("SBO guarantees violated at delta=1")
	}
}

// TestFacadeSweep is the acceptance scenario: a 32-point δ-grid on a
// 200-task instance returns a deterministic non-dominated front.
func TestFacadeSweep(t *testing.T) {
	in := GenUniform(200, 16, 1)
	grid, err := SweepGeometricGrid(0.25, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	var first *SweepResult
	for _, workers := range []int{1, 4, 0} { // serial, fixed, NumCPU
		res, err := Sweep(context.Background(), in, SweepConfig{Deltas: grid, Workers: workers})
		if err != nil {
			t.Fatalf("Sweep(workers=%d): %v", workers, err)
		}
		if len(res.Front) == 0 {
			t.Fatal("empty front")
		}
		for i, p := range res.Front {
			if i > 0 && (p.Value.Cmax <= res.Front[i-1].Value.Cmax ||
				p.Value.Mmax >= res.Front[i-1].Value.Mmax) {
				t.Fatalf("front not non-dominated at %d: %v after %v",
					i, p.Value, res.Front[i-1].Value)
			}
			sweepWitness(t, in, res.Runs[p.RunIndex])
		}
		if first == nil {
			first = res
		} else if !reflect.DeepEqual(res.Front, first.Front) {
			t.Fatalf("front depends on worker count: %v vs %v", res.Front, first.Front)
		}
	}
	if first.Bounds.MmaxLB != MemLB(in.S(), in.M) {
		t.Errorf("sweep bounds record disagrees with MemLB")
	}
}

// TestFacadeSweepBatch streams a small instance family through the
// batch engine and checks each front equals its standalone sweep.
func TestFacadeSweepBatch(t *testing.T) {
	grid, err := SweepGeometricGrid(0.5, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	instances := []*Instance{
		GenUniform(60, 4, 1),
		GenEmbeddedCode(60, 4, 2),
		GenGridBatch(60, 4, 3),
	}
	cfg := BatchConfig{Config: SweepConfig{Deltas: grid, Workers: 2}, MaxPending: 2}
	next := 0
	err = SweepBatch(context.Background(), BatchOf(instances...), cfg,
		func(br BatchResult) error {
			if br.Err != nil {
				t.Fatalf("instance %d: %v", br.Index, br.Err)
			}
			if br.Index != next {
				t.Fatalf("result index %d, want %d", br.Index, next)
			}
			next++
			solo, err := Sweep(context.Background(), instances[br.Index], cfg.Config)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(br.Result.Front, solo.Front) {
				t.Errorf("instance %d: batch front %v, standalone %v",
					br.Index, br.Result.Front, solo.Front)
			}
			return nil
		})
	if err != nil {
		t.Fatalf("SweepBatch: %v", err)
	}
	if next != len(instances) {
		t.Fatalf("emitted %d results, want %d", next, len(instances))
	}
}

func TestFacadeGridErrors(t *testing.T) {
	if _, err := SweepGeometricGrid(0, 8, 32); err == nil {
		t.Error("SweepGeometricGrid accepted lo=0")
	}
	if _, err := SweepLinearGrid(4, 2, 8); err == nil {
		t.Error("SweepLinearGrid accepted hi < lo")
	}
}

func TestFacadeRLSOnDAG(t *testing.T) {
	g := NewGraph(2, []Time{3, 1, 4, 1, 5}, []Mem{2, 2, 2, 2, 2})
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(2, 4)
	res, err := RLS(g, 3, TieBottomLevel)
	if err != nil {
		t.Fatalf("RLS: %v", err)
	}
	if err := res.Schedule.Validate(g.PredLists()); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	if res.Mmax > 3*MemLB(g.S, g.M) {
		t.Errorf("Corollary 2 violated")
	}
}

func TestFacadeConstrained(t *testing.T) {
	in := GenEmbeddedCode(40, 4, 7)
	lb := MemLB(in.S(), in.M)
	a, v, err := ConstrainedIndependent(in, 2*lb)
	if err != nil {
		t.Fatalf("ConstrainedIndependent: %v", err)
	}
	if v.Mmax > 2*lb {
		t.Errorf("budget exceeded: %d > %d", v.Mmax, 2*lb)
	}
	if err := in.ValidateAssignment(a); err != nil {
		t.Fatalf("assignment invalid: %v", err)
	}
	// Budget below LB must fail loudly.
	if _, _, err := ConstrainedIndependent(in, lb-1); err == nil {
		t.Error("infeasible budget accepted")
	}
}

func TestFacadeParetoAndRender(t *testing.T) {
	in := NewInstance(2, []Time{4, 2, 2}, []Mem{1, 4, 4})
	pts, err := ParetoFront(in)
	if err != nil {
		t.Fatalf("ParetoFront: %v", err)
	}
	if len(pts) != 2 {
		t.Fatalf("front size %d, want 2 (Figure 1 instance)", len(pts))
	}
	var buf bytes.Buffer
	if err := RenderAssignment(&buf, in, pts[0].Assignment, GanttOptions{Width: 30, ShowMemory: true}); err != nil {
		t.Fatalf("RenderAssignment: %v", err)
	}
	if !strings.Contains(buf.String(), "Cmax=") {
		t.Errorf("render output incomplete:\n%s", buf.String())
	}
}

func TestFacadeRatios(t *testing.T) {
	c, m := SBORatio(1, 1, 1)
	if c != 2 || m != 2 {
		t.Errorf("SBORatio(1,1,1) = (%g,%g)", c, m)
	}
	if RLSCmaxRatio(3, 4) != 2.5 {
		t.Errorf("RLSCmaxRatio(3,4) = %g", RLSCmaxRatio(3, 4))
	}
	if RLSSumCiRatio(4) != 2.5 {
		t.Errorf("RLSSumCiRatio(4) = %g", RLSSumCiRatio(4))
	}
}

func TestFacadeBounds(t *testing.T) {
	in := GenUniform(30, 4, 3)
	rec := BoundsForInstance(in)
	if rec.CmaxLB <= 0 || rec.MmaxLB < 0 {
		t.Errorf("degenerate bounds: %+v", rec)
	}
	g := GraphFromInstance(in)
	grec, err := BoundsForGraph(g)
	if err != nil {
		t.Fatalf("BoundsForGraph: %v", err)
	}
	if grec.CmaxLB != rec.CmaxLB {
		t.Errorf("edgeless graph bound %d != instance bound %d", grec.CmaxLB, rec.CmaxLB)
	}
}

func TestFacadeGenerators(t *testing.T) {
	if err := GenGridBatch(25, 3, 1).Validate(); err != nil {
		t.Errorf("GenGridBatch: %v", err)
	}
	if err := GenLayeredDAG(3, 4, 3, 1).Validate(); err != nil {
		t.Errorf("GenLayeredDAG: %v", err)
	}
	if err := GenForkJoin(3, 2, 4, 1).Validate(); err != nil {
		t.Errorf("GenForkJoin: %v", err)
	}
}

func TestFacadeExactSolvers(t *testing.T) {
	sizes := []int64{7, 5, 4, 3, 1}
	opt, a := ExactDP{}.Solve(sizes, 2)
	if opt != 10 {
		t.Errorf("ExactDP opt = %d, want 10", opt)
	}
	_ = a
	optB, _ := BranchAndBound{}.Solve(sizes, 2)
	if optB != opt {
		t.Errorf("BnB %d != DP %d", optB, opt)
	}
}

// TestFacadeSweepGraph drives the graph-sweep surface end to end: the
// JSON graph format round-trips through the facade, SweepGraph builds
// an RLS-only front, and a mixed graph/instance batch streams both
// kinds in order.
func TestFacadeSweepGraph(t *testing.T) {
	g := GenForkJoin(4, 4, 3, 2)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadGraphJSON(&buf)
	if err != nil {
		t.Fatalf("ReadGraphJSON: %v", err)
	}
	if decoded.N() != g.N() || decoded.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip lost structure: n=%d e=%d, want n=%d e=%d",
			decoded.N(), decoded.NumEdges(), g.N(), g.NumEdges())
	}

	grid, err := SweepGeometricGrid(2, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SweepGraph(context.Background(), decoded, SweepConfig{Deltas: grid})
	if err != nil {
		t.Fatalf("SweepGraph: %v", err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty graph front")
	}
	prep, err := PrepareRLS(decoded)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Runs {
		if r.Algorithm != SweepRLS {
			t.Fatalf("graph sweep ran %s", r.Label())
		}
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Label(), r.Err)
		}
		w, err := prep.Run(r.Delta, r.Tie)
		if err != nil {
			t.Fatalf("%s: %v", r.Label(), err)
		}
		if (Value{Cmax: w.Cmax, Mmax: w.Mmax}) != r.Value {
			t.Fatalf("%s: witness (%d,%d), run value %v", r.Label(), w.Cmax, w.Mmax, r.Value)
		}
		if err := w.Schedule.Validate(decoded.PredLists()); err != nil {
			t.Fatalf("%s: schedule violates precedence: %v", r.Label(), err)
		}
	}

	// Mixed batch: a graph and an instance through one pool.
	var got []BatchResult
	err = SweepBatch(context.Background(),
		func(yield func(BatchItem) bool) {
			_ = yield(BatchItem{Graph: decoded}) && yield(BatchItem{Instance: GenUniform(30, 4, 1)})
		},
		BatchConfig{Config: SweepConfig{Deltas: grid}},
		func(br BatchResult) error { got = append(got, br); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Err != nil || got[1].Err != nil {
		t.Fatalf("mixed batch: %+v", got)
	}
	if !reflect.DeepEqual(got[0].Result.Front, res.Front) {
		t.Errorf("batched graph front differs from SweepGraph")
	}
}

// TestFacadeCacheAndShards drives the cluster-scale surface end to
// end: a front cache serves a warm batch byte-for-byte, a shard plan
// routes identical items together, and one batch per shard over the
// shared cache reproduces the unsharded fronts.
func TestFacadeCacheAndShards(t *testing.T) {
	grid, err := SweepGeometricGrid(0.5, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	items := []BatchItem{
		{Instance: GenUniform(30, 4, 1)},
		{Graph: GenForkJoin(4, 3, 3, 2)},
		{Instance: GenUniform(30, 4, 1)}, // duplicate of item 0
	}

	c, err := NewSweepCache(CacheConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := BatchConfig{Config: SweepConfig{Deltas: grid}, Cache: c}
	seq := func(yield func(BatchItem) bool) {
		for _, it := range items {
			if !yield(it) {
				return
			}
		}
	}
	collect := func() []BatchResult {
		t.Helper()
		var got []BatchResult
		if err := SweepBatch(context.Background(), seq, cfg, func(br BatchResult) error {
			got = append(got, br)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	cold := collect()
	warm := collect()
	var st CacheStats = c.Stats()
	if st.Hits < int64(len(items)) || st.Misses == 0 {
		t.Fatalf("cache stats %+v after cold+warm passes", st)
	}
	for i := range items {
		if !warm[i].CacheHit {
			t.Errorf("warm item %d not served from cache", i)
		}
		if !reflect.DeepEqual(cold[i].Result.Front, warm[i].Result.Front) {
			t.Errorf("item %d: warm front differs from cold", i)
		}
	}

	plan, err := NewShardPlan(2, ShardHashAffine, items)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Shards[0] != plan.Shards[2] {
		t.Error("hash-affine plan split identical items")
	}
	if _, err := ParseShardPolicy("rr"); err != nil {
		t.Errorf("ParseShardPolicy(rr): %v", err)
	}
	// One batch per shard over the shared warm cache: every item hits
	// and reproduces its cold front.
	for _, local := range plan.Locals() {
		shardSeq := func(yield func(BatchItem) bool) {
			for _, g := range local {
				if !yield(items[g]) {
					return
				}
			}
		}
		if err := SweepBatch(context.Background(), shardSeq, cfg, func(br BatchResult) error {
			g := local[br.Index]
			if !br.CacheHit {
				t.Errorf("sharded item %d not served from cache", g)
			}
			if !reflect.DeepEqual(br.Result.Front, cold[g].Result.Front) {
				t.Errorf("item %d: sharded front differs", g)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFacadeAdaptiveSweep exercises the adaptive-refinement surface:
// an adaptive batch whose merged fronts pointwise weakly dominate the
// coarse ones, plus the grid planner and the gap metric.
func TestFacadeAdaptiveSweep(t *testing.T) {
	grid, err := SweepGeometricGrid(0.0625, 256, 6)
	if err != nil {
		t.Fatal(err)
	}
	items := []BatchItem{
		{Instance: GenUniform(200, 16, 1)},
		{Graph: GenForkJoin(8, 6, 10, 1)},
	}
	seq := BatchOfItems(items...)
	cfg := BatchConfig{Config: SweepConfig{Deltas: grid}}

	var coarse []BatchResult
	if err := SweepBatch(context.Background(), seq, cfg, func(br BatchResult) error {
		coarse = append(coarse, br)
		return br.Err
	}); err != nil {
		t.Fatal(err)
	}
	rcfg := RefineConfig{Gap: 0.05, MaxPoints: 12}
	var merged []BatchResult
	if err := SweepBatchAdaptive(context.Background(), seq, cfg, rcfg, func(br BatchResult) error {
		merged = append(merged, br)
		return br.Err
	}); err != nil {
		t.Fatal(err)
	}
	if len(merged) != len(items) {
		t.Fatalf("adaptive emitted %d results, want %d", len(merged), len(items))
	}
	refined := false
	for i := range items {
		if len(merged[i].Result.Runs) > len(coarse[i].Result.Runs) {
			refined = true
		}
		if g, c := FrontMaxRelGap(merged[i].Result.Front), FrontMaxRelGap(coarse[i].Result.Front); g > c {
			t.Errorf("item %d: adaptive max gap %.4f worse than coarse %.4f", i, g, c)
		}
		for _, cp := range coarse[i].Result.Front {
			ok := false
			for _, mp := range merged[i].Result.Front {
				if mp.Value.WeaklyDominates(cp.Value) {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("item %d: coarse point %v not dominated by adaptive front", i, cp.Value)
			}
		}
	}
	if !refined {
		t.Error("no item was refined")
	}

	// The planner surface: the instance's coarse front plans points,
	// and degenerate fronts plan nothing.
	plan, err := RefineGrid(coarse[0].Result, false, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) == 0 || len(plan) > rcfg.MaxPoints {
		t.Errorf("planned %d points, want 1..%d", len(plan), rcfg.MaxPoints)
	}
	if got, err := RefineGrid(&SweepResult{}, false, rcfg); err != nil || len(got) != 0 {
		t.Errorf("empty result planned %v (err %v)", got, err)
	}
}

// TestFacadePreparedConstrainedDAG exercises the budget-sweep reuse
// surface: one PrepareRLS value serves every cap.
func TestFacadePreparedConstrainedDAG(t *testing.T) {
	g := GenLayeredDAG(3, 6, 3, 9)
	prep, err := PrepareRLS(g, TieSPT)
	if err != nil {
		t.Fatal(err)
	}
	lb := prep.LB()
	for cap := 2 * lb; cap <= 3*lb; cap += lb {
		got, err := prep.Constrained(cap, TieSPT)
		if err != nil {
			t.Fatalf("cap %d: %v", cap, err)
		}
		want, err := ConstrainedDAG(g, cap, TieSPT)
		if err != nil {
			t.Fatalf("cap %d fresh: %v", cap, err)
		}
		if got.Cmax != want.Cmax || got.Mmax != want.Mmax {
			t.Errorf("cap %d: prepared (%d,%d) != fresh (%d,%d)", cap, got.Cmax, got.Mmax, want.Cmax, want.Mmax)
		}
	}
	if _, err := prep.Constrained(lb-1, TieSPT); !errors.Is(err, ErrInfeasible) {
		t.Errorf("below-LB budget: %v", err)
	}
}
