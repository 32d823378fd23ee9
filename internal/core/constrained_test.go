package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"storagesched/internal/bounds"
	"storagesched/internal/dag"
	"storagesched/internal/makespan"
	"storagesched/internal/model"
)

func TestConstrainedDAGInfeasibleBudget(t *testing.T) {
	g := dag.New(2, []model.Time{1, 1}, []model.Mem{10, 10})
	// LB = 10; budget below it is provably infeasible.
	if _, err := ConstrainedDAG(g, 9, TieByID); !errors.Is(err, ErrInfeasible) {
		t.Errorf("expected ErrInfeasible, got %v", err)
	}
}

func TestConstrainedDAGGenerousBudget(t *testing.T) {
	g := dag.New(2, []model.Time{3, 2, 4, 1}, []model.Mem{5, 5, 5, 5})
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	res, err := ConstrainedDAG(g, 20, TieByID)
	if err != nil {
		t.Fatalf("ConstrainedDAG: %v", err)
	}
	if res.Mmax > 20 {
		t.Errorf("Mmax = %d exceeds budget 20", res.Mmax)
	}
	if err := res.Schedule.Validate(g.PredLists()); err != nil {
		t.Errorf("invalid schedule: %v", err)
	}
}

func TestConstrainedSBOInfeasible(t *testing.T) {
	in := model.NewInstance(2, []model.Time{1, 1}, []model.Mem{10, 10})
	if _, err := ConstrainedSBO(in, 9, makespan.LPT{}, makespan.LPT{}, 8); !errors.Is(err, ErrInfeasible) {
		t.Errorf("expected ErrInfeasible, got %v", err)
	}
}

func TestConstrainedSBOFindsFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		in := randInstance(rng, 20, 4, 100)
		lb := bounds.MemLB(in.S(), in.M)
		budget := 2 * lb // always satisfiable by SBO (π2 is a list schedule)
		res, err := ConstrainedSBO(in, budget, makespan.LPT{}, makespan.LPT{}, 16)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Mmax > budget {
			t.Errorf("trial %d: Mmax %d > budget %d", trial, res.Mmax, budget)
		}
		if res.Tried == 0 {
			t.Errorf("trial %d: no parameters tried", trial)
		}
	}
}

func TestConstrainedSBOTightBudgetUsesGuaranteedDelta(t *testing.T) {
	// Budget exactly Mmax(π2): only very large ∆ (all tasks on π2)
	// certainly fits; the solver must still return something feasible.
	in := model.NewInstance(2,
		[]model.Time{8, 8, 1, 1},
		[]model.Mem{1, 1, 8, 8})
	pi2 := makespan.LPT{}.Assign(in.S(), in.M)
	budget := in.Mmax(pi2)
	res, err := ConstrainedSBO(in, budget, makespan.LPT{}, makespan.LPT{}, 16)
	if err != nil {
		t.Fatalf("ConstrainedSBO: %v", err)
	}
	if res.Mmax > budget {
		t.Errorf("Mmax %d > budget %d", res.Mmax, budget)
	}
}

func TestConstrainedIndependentRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		in := randInstance(rng, 16, 4, 60)
		lb := bounds.MemLB(in.S(), in.M)
		a, v, err := ConstrainedIndependent(in, 2*lb)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := in.ValidateAssignment(a); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if v.Mmax > 2*lb {
			t.Errorf("trial %d: Mmax %d > budget %d", trial, v.Mmax, 2*lb)
		}
		if in.Cmax(a) != v.Cmax || in.Mmax(a) != v.Mmax {
			t.Errorf("trial %d: reported value mismatch", trial)
		}
	}
}

func TestConstrainedIndependentInfeasible(t *testing.T) {
	in := model.NewInstance(2, []model.Time{1, 1}, []model.Mem{10, 10})
	if _, _, err := ConstrainedIndependent(in, 5); !errors.Is(err, ErrInfeasible) {
		t.Errorf("expected ErrInfeasible, got %v", err)
	}
}

// Section 7 guarantee: a budget of at least 2·LB is always satisfied
// by both routes (list-schedule memory never exceeds 2·LB and RLS with
// cap ≥ 2·LB never gets stuck).
func TestPropertyConstrainedAlwaysSucceedsAtTwoLB(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randInstance(rng, 30, 6, 100)
		lb := bounds.MemLB(in.S(), in.M)
		a, v, err := ConstrainedIndependent(in, 2*lb)
		if err != nil {
			return false
		}
		if in.ValidateAssignment(a) != nil {
			return false
		}
		return v.Mmax <= 2*lb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// The returned makespan under a generous budget should not be worse
// than the Graham guarantee (sanity on solution quality, not just
// feasibility).
func TestPropertyConstrainedQuality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randInstance(rng, 25, 5, 80)
		total := in.TotalMem()
		a, v, err := ConstrainedIndependent(in, total) // budget = everything on one proc
		if err != nil {
			return false
		}
		_ = a
		// Anything within 3x of the work/max lower bound is sane
		// (SBO at small delta approaches the LPT schedule, which is
		// within 4/3; keep slack for the grid search).
		r := bounds.ForInstance(in)
		return float64(v.Cmax) <= 3*float64(r.CmaxLB)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConstrainedDAGUncertifiedBand(t *testing.T) {
	// Construct a case in the [LB, 2LB) band where the greedy fails:
	// 3 items of memory 2 on 2 processors, cap 3 (LB = 3). Greedy
	// places two items on different processors (loads 2,2), then the
	// third needs 2 but both are at 2+2=4 > 3? No: memsize 2 each,
	// 2+2=4 > 3, so it is stuck -> ErrNotCertified. (A feasible
	// schedule would need capacity 4.)
	g := dag.New(2, []model.Time{5, 5, 5}, []model.Mem{2, 2, 2})
	_, err := ConstrainedDAG(g, 3, TieByID)
	if err == nil {
		t.Fatal("expected failure in the uncertified band")
	}
	if !errors.Is(err, ErrNotCertified) {
		t.Errorf("expected ErrNotCertified, got %v", err)
	}
}

// TestConstrainedErrorBands walks all three Section 7 solvers through
// the paper's three budget bands on one crafted workload — three tasks
// of storage 2 on two processors, LB = 3:
//
//   - budget < LB: provably infeasible, errors.Is(err, ErrInfeasible);
//   - LB <= budget < 2·LB: the greedy legitimately gets stuck here
//     (two tasks land on different processors, the third fits nowhere
//     under cap 3), errors.Is(err, ErrNotCertified);
//   - budget >= 2·LB: always solved, achieved Mmax within budget.
//
// The errors.Is contract matters because every solver wraps the
// sentinel with %w to attach the (LB, budget) pair.
func TestConstrainedErrorBands(t *testing.T) {
	p := []model.Time{5, 5, 5}
	s := []model.Mem{2, 2, 2}
	in := model.NewInstance(2, p, s)
	lb := bounds.MemLB(s, 2) // = ceil(6/2) = 3

	type result struct {
		err  error
		mmax model.Mem
	}
	solvers := map[string]func(budget model.Mem) result{
		"ConstrainedDAG": func(budget model.Mem) result {
			g := dag.New(2, p, s)
			res, err := ConstrainedDAG(g, budget, TieByID)
			if err != nil {
				return result{err: err}
			}
			return result{mmax: res.Mmax}
		},
		"ConstrainedSBO": func(budget model.Mem) result {
			res, err := ConstrainedSBO(in, budget, makespan.LPT{}, makespan.LPT{}, 8)
			if err != nil {
				return result{err: err}
			}
			return result{mmax: res.Mmax}
		},
		"ConstrainedIndependent": func(budget model.Mem) result {
			_, v, err := ConstrainedIndependent(in, budget)
			if err != nil {
				return result{err: err}
			}
			return result{mmax: v.Mmax}
		},
	}
	for name, solve := range solvers {
		// Band 1: budget < LB.
		r := solve(lb - 1)
		if !errors.Is(r.err, ErrInfeasible) {
			t.Errorf("%s(budget=LB-1): err = %v, want ErrInfeasible", name, r.err)
		}
		if errors.Is(r.err, ErrNotCertified) {
			t.Errorf("%s(budget=LB-1): error matches both sentinels", name)
		}
		// Band 2: LB <= budget < 2·LB, stuck by construction.
		r = solve(lb)
		if !errors.Is(r.err, ErrNotCertified) {
			t.Errorf("%s(budget=LB): err = %v, want ErrNotCertified", name, r.err)
		}
		if errors.Is(r.err, ErrInfeasible) {
			t.Errorf("%s(budget=LB): error matches both sentinels", name)
		}
		// Band 3: budget >= 2·LB always succeeds within budget.
		for _, budget := range []model.Mem{2 * lb, 3 * lb} {
			r = solve(budget)
			if r.err != nil {
				t.Errorf("%s(budget=%d >= 2LB): %v", name, budget, r.err)
				continue
			}
			if r.mmax > budget {
				t.Errorf("%s(budget=%d): achieved Mmax %d exceeds budget", name, budget, r.mmax)
			}
		}
	}
}

// TestConstrainedErrorBandsRandom repeats the band contract on random
// instances: below LB is always ErrInfeasible, at 2·LB always solved;
// in between either outcome is legal, but a failure must be
// ErrNotCertified and a success must respect the budget.
func TestConstrainedErrorBandsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		in := randInstance(rng, 20, 4, 50)
		lb := bounds.MemLB(in.S(), in.M)
		if lb < 2 {
			continue
		}
		if _, _, err := ConstrainedIndependent(in, lb-1); !errors.Is(err, ErrInfeasible) {
			t.Errorf("trial %d: budget below LB: %v", trial, err)
		}
		for budget := lb; budget < 2*lb; budget += maxMem(1, lb/4) {
			_, v, err := ConstrainedIndependent(in, budget)
			if err != nil {
				if !errors.Is(err, ErrNotCertified) {
					t.Errorf("trial %d budget %d: band failure is %v, want ErrNotCertified", trial, budget, err)
				}
				continue
			}
			if v.Mmax > budget {
				t.Errorf("trial %d budget %d: Mmax %d over budget", trial, budget, v.Mmax)
			}
		}
		_, v, err := ConstrainedIndependent(in, 2*lb)
		if err != nil {
			t.Errorf("trial %d: 2LB budget failed: %v", trial, err)
		} else if v.Mmax > 2*lb {
			t.Errorf("trial %d: Mmax %d over 2LB budget", trial, v.Mmax)
		}
	}
}

func maxMem(a, b model.Mem) model.Mem {
	if a > b {
		return a
	}
	return b
}

// A budget sweep over one graph shares a single prepared value across
// all caps: every outcome — success, ErrNotCertified, ErrInfeasible —
// must match a fresh ConstrainedDAG call at the same cap, while the
// validation and tie-ranking work is paid exactly once.
func TestConstrainedDAGPreparedBudgetSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		g := randGraph(rng, 16, 4, 0.3, 50)
		lb := bounds.MemLB(g.S, g.M)
		prep, err := PrepareRLS(g, TieSPT)
		if err != nil {
			t.Fatalf("trial %d: PrepareRLS: %v", trial, err)
		}
		// Sweep the budget from provably infeasible through the
		// uncertified band into the guaranteed region.
		for cap := lb - 1; cap <= 3*lb; cap += maxMem(1, lb/4) {
			got, gotErr := prep.Constrained(cap, TieSPT)
			want, wantErr := ConstrainedDAG(g, cap, TieSPT)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("trial %d cap %d: prepared err %v, fresh err %v", trial, cap, gotErr, wantErr)
			}
			if gotErr != nil {
				if !errors.Is(gotErr, ErrInfeasible) && !errors.Is(gotErr, ErrNotCertified) {
					t.Fatalf("trial %d cap %d: unexpected error %v", trial, cap, gotErr)
				}
				if gotErr.Error() != wantErr.Error() {
					t.Errorf("trial %d cap %d: error %q, want %q", trial, cap, gotErr, wantErr)
				}
				continue
			}
			if got.Cmax != want.Cmax || got.Mmax != want.Mmax || got.Cap != want.Cap {
				t.Errorf("trial %d cap %d: prepared (Cmax=%d,Mmax=%d,Cap=%d), fresh (Cmax=%d,Mmax=%d,Cap=%d)",
					trial, cap, got.Cmax, got.Mmax, got.Cap, want.Cmax, want.Mmax, want.Cap)
			}
			if got.Mmax > cap {
				t.Errorf("trial %d cap %d: Mmax %d exceeds budget", trial, cap, got.Mmax)
			}
			if err := got.Schedule.Validate(g.PredLists()); err != nil {
				t.Errorf("trial %d cap %d: invalid schedule: %v", trial, cap, err)
			}
		}
		// Below-LB budgets are ErrInfeasible without touching the solver.
		if lb > 0 {
			if _, err := prep.Constrained(lb-1, TieSPT); !errors.Is(err, ErrInfeasible) {
				t.Errorf("trial %d: budget below LB: %v", trial, err)
			}
		}
		// An unprepared tie-break surfaces as an error, not a panic.
		if _, err := prep.Constrained(3*lb+1, TieLPT); err == nil {
			t.Errorf("trial %d: unprepared tie-break accepted", trial)
		}
	}
}

// TestRLSPreparedConstrainedParity walks a prepared independent-task
// solver through the whole budget band and checks every outcome —
// schedule, objectives and both error sentinels — against a fresh
// cappedRLSIndependent call per budget.
func TestRLSPreparedConstrainedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 10; trial++ {
		in := randInstance(rng, 20, 4, 60)
		prep, err := PrepareRLSIndependent(in, TieSPT)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		lb := prep.LB()
		for budget := maxMem(0, lb-2); budget <= 3*lb; budget += maxMem(1, lb/4) {
			got, gotErr := prep.Constrained(budget, TieSPT)
			if budget < lb {
				if !errors.Is(gotErr, ErrInfeasible) {
					t.Fatalf("trial %d budget %d: err = %v, want ErrInfeasible", trial, budget, gotErr)
				}
				continue
			}
			want, wantErr := cappedRLSIndependent(in, budget, TieSPT)
			if wantErr != nil {
				var tooSmall ErrCapTooSmall
				if !errors.As(wantErr, &tooSmall) {
					t.Fatalf("trial %d budget %d: fresh err %v", trial, budget, wantErr)
				}
				if !errors.Is(gotErr, ErrNotCertified) {
					t.Fatalf("trial %d budget %d: err = %v, want ErrNotCertified", trial, budget, gotErr)
				}
				continue
			}
			if gotErr != nil {
				t.Fatalf("trial %d budget %d: prepared err %v, fresh nil", trial, budget, gotErr)
			}
			if got.Cmax != want.Cmax || got.Mmax != want.Mmax || got.SumCi != want.SumCi ||
				got.Cap != want.Cap || got.Delta != want.Delta || got.LB != want.LB {
				t.Fatalf("trial %d budget %d: prepared (%d,%d,%d) != fresh (%d,%d,%d)",
					trial, budget, got.Cmax, got.Mmax, got.SumCi, want.Cmax, want.Mmax, want.SumCi)
			}
			ga, wa := got.Schedule.Assignment(), want.Schedule.Assignment()
			for i := range ga {
				if ga[i] != wa[i] {
					t.Fatalf("trial %d budget %d: assignment diverges at task %d", trial, budget, i)
				}
			}
		}
	}
}

// TestSBOPreparedConstrainedParity reuses one prepared SBO value over
// the budget band and checks each outcome against a fresh
// ConstrainedSBO call (which prepares from scratch every time).
func TestSBOPreparedConstrainedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 6; trial++ {
		in := randInstance(rng, 18, 4, 60)
		prep, err := PrepareSBO(in, makespan.LPT{}, makespan.LPT{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		lb := bounds.MemLB(in.S(), in.M)
		for budget := maxMem(0, lb-2); budget <= 3*lb; budget += maxMem(1, lb/4) {
			got, gotErr := prep.Constrained(budget, 16)
			want, wantErr := ConstrainedSBO(in, budget, makespan.LPT{}, makespan.LPT{}, 16)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("trial %d budget %d: prepared err %v, fresh err %v", trial, budget, gotErr, wantErr)
			}
			if gotErr != nil {
				if gotErr.Error() != wantErr.Error() {
					t.Fatalf("trial %d budget %d: error text diverges: %v vs %v", trial, budget, gotErr, wantErr)
				}
				continue
			}
			if got.Cmax != want.Cmax || got.Mmax != want.Mmax ||
				got.Tried != want.Tried || got.GuaranteedDelta != want.GuaranteedDelta ||
				got.Delta != want.Delta {
				t.Fatalf("trial %d budget %d: prepared (Cmax=%d Mmax=%d tried=%d) != fresh (Cmax=%d Mmax=%d tried=%d)",
					trial, budget, got.Cmax, got.Mmax, got.Tried, want.Cmax, want.Mmax, want.Tried)
			}
		}
	}
}

// TestConstrainedPreparedSolveParity shares one ConstrainedPrepared
// across the band — concurrently, as a budget sweep would — and checks
// every Solve outcome against a fresh ConstrainedIndependent call.
func TestConstrainedPreparedSolveParity(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 6; trial++ {
		in := randInstance(rng, 18, 4, 60)
		prep, err := PrepareConstrainedIndependent(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		lb := prep.LB()
		var budgets []model.Mem
		for budget := maxMem(0, lb-2); budget <= 3*lb; budget += maxMem(1, lb/4) {
			budgets = append(budgets, budget)
		}
		type outcome struct {
			a   model.Assignment
			v   model.Value
			err error
		}
		got := make([]outcome, len(budgets))
		var wg sync.WaitGroup
		for k, budget := range budgets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a, v, err := prep.Solve(budget)
				got[k] = outcome{a: a, v: v, err: err}
			}()
		}
		wg.Wait()
		for k, budget := range budgets {
			wantA, wantV, wantErr := ConstrainedIndependent(in, budget)
			g := got[k]
			if (g.err == nil) != (wantErr == nil) {
				t.Fatalf("trial %d budget %d: prepared err %v, fresh err %v", trial, budget, g.err, wantErr)
			}
			if g.err != nil {
				if g.err.Error() != wantErr.Error() {
					t.Fatalf("trial %d budget %d: error text diverges: %v vs %v", trial, budget, g.err, wantErr)
				}
				continue
			}
			if g.v != wantV {
				t.Fatalf("trial %d budget %d: value %v != fresh %v", trial, budget, g.v, wantV)
			}
			for i := range g.a {
				if g.a[i] != wantA[i] {
					t.Fatalf("trial %d budget %d: assignment diverges at task %d", trial, budget, i)
				}
			}
		}
	}
}
