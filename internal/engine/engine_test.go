package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"storagesched/internal/core"
	"storagesched/internal/gen"
	"storagesched/internal/model"
	"storagesched/internal/pareto"
)

// mustGrid unwraps a grid constructor in tests, where the inputs are
// known-valid.
func mustGrid(g []float64, err error) []float64 {
	if err != nil {
		panic(err)
	}
	return g
}

func testGrid() []float64 { return mustGrid(GeometricGrid(0.25, 8, 16)) }

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	in := gen.Uniform(120, 8, 7)
	var base *Result
	for _, workers := range []int{1, 2, 3, 8, 32} {
		res, err := Sweep(context.Background(), in, Config{Deltas: testGrid(), Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = res
			continue
		}
		if len(res.Runs) != len(base.Runs) {
			t.Fatalf("workers=%d: %d runs, want %d", workers, len(res.Runs), len(base.Runs))
		}
		for i := range res.Runs {
			got, want := res.Runs[i], base.Runs[i]
			if got.Algorithm != want.Algorithm || got.Tie != want.Tie || got.Delta != want.Delta {
				t.Fatalf("workers=%d run %d: job (%v,%v,%g), want (%v,%v,%g)",
					workers, i, got.Algorithm, got.Tie, got.Delta, want.Algorithm, want.Tie, want.Delta)
			}
			if got.Value != want.Value {
				t.Fatalf("workers=%d run %d (%s): value %v, want %v",
					workers, i, got.Label(), got.Value, want.Value)
			}
		}
		if !reflect.DeepEqual(res.Front, base.Front) {
			t.Fatalf("workers=%d: front %v, want %v", workers, res.Front, base.Front)
		}
	}
	if len(base.Front) == 0 {
		t.Fatal("empty front")
	}
}

func TestSweepFrontIsNonDominatedAndSorted(t *testing.T) {
	in := gen.EmbeddedCode(150, 8, 3)
	cfg := Config{Deltas: testGrid()}
	res, err := Sweep(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkWitnesses(t, BatchItem{Instance: in}, cfg, res)
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
}

// TestSweepAgreesWithExactFront checks the swept front never claims a
// point below the true Pareto front on instances small enough to
// enumerate, and that every swept value is genuinely achievable.
func TestSweepAgreesWithExactFront(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		in := gen.Uniform(10, 3, seed)
		exact, err := pareto.Front(in)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Sweep(context.Background(), in, Config{Deltas: mustGrid(GeometricGrid(0.125, 16, 32))})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Front {
			covered := false
			for _, q := range exact {
				if q.Value.WeaklyDominates(p.Value) {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("seed %d: swept point %v lies below the exact front %v",
					seed, p.Value, pareto.Values(exact))
			}
		}
	}
}

// TestSweepSBOGuarantees checks every SBO run the engine produces
// equals the unprepared algorithm (the memoized π1/π2 must behave
// exactly like it), and that Properties 1-2 hold for its witness.
func TestSweepSBOGuarantees(t *testing.T) {
	in := gen.GridBatch(100, 8, 11)
	cfg := Config{Deltas: testGrid(), SkipRLS: true}
	res, err := Sweep(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkWitnesses(t, BatchItem{Instance: in}, cfg, res)
	for _, r := range res.Runs {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Label(), r.Err)
		}
		direct, err := core.SBOWithLPT(in, r.Delta)
		if err != nil {
			t.Fatal(err)
		}
		if r.Value.Cmax != direct.Cmax || r.Value.Mmax != direct.Mmax {
			t.Errorf("%s: engine %v, direct SBO (%d,%d)", r.Label(), r.Value, direct.Cmax, direct.Mmax)
		}
	}
}

// TestSweepRLSMatchesUnprepared checks the memoized RLS path returns
// the values of core.RLSIndependent called directly, and that those
// witnesses are valid.
func TestSweepRLSMatchesUnprepared(t *testing.T) {
	in := gen.Uniform(80, 6, 9)
	cfg := Config{Deltas: []float64{2, 2.5, 3, 4, 8}, SkipSBO: true}
	res, err := Sweep(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkWitnesses(t, BatchItem{Instance: in}, cfg, res)
	if len(res.Runs) != 5*len(DefaultTies) {
		t.Fatalf("got %d runs, want %d", len(res.Runs), 5*len(DefaultTies))
	}
	for _, r := range res.Runs {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Label(), r.Err)
		}
		direct, err := core.RLSIndependent(in, r.Delta, r.Tie)
		if err != nil {
			t.Fatal(err)
		}
		if r.Value.Cmax != direct.Cmax || r.Value.Mmax != direct.Mmax {
			t.Errorf("%s: engine %v, direct RLS (%d,%d)", r.Label(), r.Value, direct.Cmax, direct.Mmax)
		}
	}
}

// TestSweepRunsEachDistinctScheduleOnce: on instance items the BLevel
// slot is filled by a copy of the LPT run, whatever the tie order, so
// the job list is one shorter per δ while every Run — the copied ones
// included — still has the value of the direct core.RLSIndependent
// call of its own label.
func TestSweepRunsEachDistinctScheduleOnce(t *testing.T) {
	in := gen.Correlated(60, 5, 4)
	deltas := []float64{2, 3.5}
	for _, c := range []struct {
		ties []core.TieBreak
		jobs int // jobs per δ
	}{
		{DefaultTies, 3},
		{[]core.TieBreak{core.TieBottomLevel, core.TieLPT}, 1},
		{[]core.TieBreak{core.TieBottomLevel, core.TieSPT}, 2},
		{[]core.TieBreak{core.TieLPT, core.TieBottomLevel, core.TieBottomLevel}, 2},
	} {
		cfg := Config{Deltas: deltas, SkipSBO: true, Ties: c.ties, Workers: 3}
		jobs, slots, err := buildJobs(cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != c.jobs*len(deltas) || cap(jobs) != len(jobs) || slots != len(c.ties)*len(deltas) {
			t.Errorf("ties %v: %d jobs (cap %d) over %d slots, want %d over %d",
				c.ties, len(jobs), cap(jobs), slots, c.jobs*len(deltas), len(c.ties)*len(deltas))
		}
		if graphJobs, _, _ := buildJobs(cfg, true); len(graphJobs) != slots {
			t.Errorf("ties %v: graph items run %d jobs, want one per slot (%d)", c.ties, len(graphJobs), slots)
		}
		res, err := Sweep(context.Background(), in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k, r := range res.Runs {
			if want := c.ties[k%len(c.ties)]; r.Tie != want || r.Delta != deltas[k/len(c.ties)] {
				t.Fatalf("ties %v: run %d is %s, want tie %s", c.ties, k, r.Label(), want)
			}
			direct, err := core.RLSIndependent(in, r.Delta, r.Tie)
			if err != nil {
				t.Fatal(err)
			}
			if r.Value != (model.Value{Cmax: direct.Cmax, Mmax: direct.Mmax}) {
				t.Errorf("ties %v: %s differs from the direct run", c.ties, r.Label())
			}
		}
	}
}

func TestSweepCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := gen.Uniform(50, 4, 1)
	if _, err := Sweep(ctx, in, Config{Deltas: testGrid()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestSweepCancelledMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	testHookAfterRun = func() {
		done++
		if done == 3 {
			cancel()
		}
	}
	defer func() { testHookAfterRun = nil }()
	in := gen.Uniform(50, 4, 1)
	// One worker so the hook counter needs no synchronization and the
	// cancellation point is deterministic.
	_, err := Sweep(ctx, in, Config{Deltas: testGrid(), Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if done >= len(testGrid())*(1+len(DefaultTies)) {
		t.Fatalf("sweep ran all %d jobs despite cancellation", done)
	}
}

func TestSweepConfigValidation(t *testing.T) {
	in := gen.Uniform(10, 2, 1)
	ctx := context.Background()
	cases := []Config{
		{},                               // empty grid
		{Deltas: []float64{1, -2}},       // negative δ
		{Deltas: []float64{0}},           // zero δ
		{Deltas: []float64{math.Inf(1)}}, // infinite δ
		{Deltas: []float64{math.NaN()}},  // NaN δ
		{Deltas: []float64{1}, SkipSBO: true, SkipRLS: true}, // nothing selected
		{Deltas: []float64{1}, SkipSBO: true},                // RLS needs δ >= 2
	}
	for i, cfg := range cases {
		if _, err := Sweep(ctx, in, cfg); err == nil {
			t.Errorf("case %d: no error for invalid config %+v", i, cfg)
		}
	}
	// δ < 2 entries are silently skipped for RLS but swept by SBO.
	res, err := Sweep(ctx, in, Config{Deltas: []float64{0.5, 3}})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 + len(DefaultTies) // SBO at 0.5 and 3, RLS only at 3
	if len(res.Runs) != want {
		t.Fatalf("got %d runs, want %d", len(res.Runs), want)
	}
	if _, err := Sweep(ctx, model.NewInstance(0, nil, nil), Config{Deltas: []float64{1}}); err == nil {
		t.Error("no error for invalid instance")
	}
}

func TestGrids(t *testing.T) {
	lin := mustGrid(LinearGrid(1, 5, 5))
	if !reflect.DeepEqual(lin, []float64{1, 2, 3, 4, 5}) {
		t.Errorf("LinearGrid = %v", lin)
	}
	geo := mustGrid(GeometricGrid(0.25, 4, 5))
	want := []float64{0.25, 0.5, 1, 2, 4}
	for i := range geo {
		if math.Abs(geo[i]-want[i]) > 1e-12 {
			t.Errorf("GeometricGrid[%d] = %g, want %g", i, geo[i], want[i])
		}
	}
	if g := mustGrid(LinearGrid(3, 3, 1)); !reflect.DeepEqual(g, []float64{3}) {
		t.Errorf("single-point grid = %v", g)
	}
	// Invalid grids report errors (not panics): CLI users get a
	// message, not a stack trace.
	bad := []struct {
		lo, hi float64
		n      int
	}{
		{0, 1, 3},
		{-1, 1, 3},
		{2, 1, 3},
		{1, 2, 0},
		{math.NaN(), 2, 3},
		{1, math.NaN(), 3},
		{1, math.Inf(1), 3},
		{math.Inf(1), math.Inf(1), 3},
	}
	for _, c := range bad {
		if _, err := LinearGrid(c.lo, c.hi, c.n); err == nil {
			t.Errorf("LinearGrid(%g, %g, %d): no error", c.lo, c.hi, c.n)
		}
		if _, err := GeometricGrid(c.lo, c.hi, c.n); err == nil {
			t.Errorf("GeometricGrid(%g, %g, %d): no error", c.lo, c.hi, c.n)
		}
	}
	// A span wider than float64 would put +Inf inside the grid.
	if g, err := GeometricGrid(5e-324, 1e300, 3); err == nil {
		t.Errorf("GeometricGrid over an overflowing ratio = %v, want an error", g)
	}
}

func TestFrontPrefersLowestRunIndexWitness(t *testing.T) {
	// All tasks identical: many runs achieve the same value, so the
	// witness must be the earliest run in job order.
	in := model.NewInstance(2, []model.Time{4, 4, 4, 4}, []model.Mem{2, 2, 2, 2})
	res, err := Sweep(context.Background(), in, Config{Deltas: []float64{2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Front {
		for i := 0; i < p.RunIndex; i++ {
			if res.Runs[i].Err == nil && res.Runs[i].Value == p.Value {
				t.Fatalf("front witness %d but run %d already achieved %v", p.RunIndex, i, p.Value)
			}
		}
	}
}

// TestRunLabelMatchesPrintf pins Label's δ rendering byte-equal to
// %.4g, the format front labels have always used: on grid points and
// refinement-style subdivisions of their gaps, on values either side of
// a 4-significant-digit rounding edge, and on every decade (and an
// off-decade value) from 5e-324 to 1e300.
func TestRunLabelMatchesPrintf(t *testing.T) {
	var deltas []float64
	for _, g := range [][]float64{
		testGrid(),
		mustGrid(GeometricGrid(0.5, 8, 8)),
		mustGrid(GeometricGrid(1.0/32, 32, 17)),
		mustGrid(LinearGrid(2, 10, 33)),
	} {
		deltas = append(deltas, g...)
		for i := 1; i < len(g); i++ {
			for k := 1; k <= 3; k++ {
				deltas = append(deltas, g[i-1]*math.Pow(g[i]/g[i-1], float64(k)/4))
			}
		}
	}
	for _, e := range []float64{1, 9.9995, 1.2345, 2.0005, 0.00012345, 1e-4, 1e-5, 99995, 123456789, 1e21} {
		deltas = append(deltas, e, math.Nextafter(e, 0), math.Nextafter(e, math.Inf(1)))
	}
	for x := 5e-324; x <= 1e300; x *= 10 {
		deltas = append(deltas, x, x*3.14159)
	}
	deltas = append(deltas, 1e300, math.MaxFloat64, 0, -2.5, math.Inf(1), math.NaN())
	for _, d := range deltas {
		if got, want := (Run{Algorithm: AlgSBO, Delta: d}).Label(), fmt.Sprintf("SBO(δ=%.4g)", d); got != want {
			t.Errorf("Label %q, %%.4g gives %q", got, want)
		}
		for _, tie := range DefaultTies {
			if got, want := (Run{Algorithm: AlgRLS, Tie: tie, Delta: d}).Label(), fmt.Sprintf("RLS(δ=%.4g,%s)", d, tie); got != want {
				t.Errorf("Label %q, %%.4g gives %q", got, want)
			}
		}
	}
}
