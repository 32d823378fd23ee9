package engine

import (
	"context"
	"testing"

	"storagesched/internal/core"
	"storagesched/internal/gen"
	"storagesched/internal/makespan"
	"storagesched/internal/model"
	"storagesched/internal/sim"
)

// checkWitnesses is the witness property of a sweep: a Run carries only
// its provenance and value, and every successful run must be reproduced
// by the core witness API from (item, algorithm, tie, δ). The rebuilt
// witness has the run's value and is a valid schedule:
//
//   - SBO: core.SBO with the sweep's sub-algorithms; a valid assignment
//     evaluating to the value, within the Property 1–2 bounds;
//   - RLS on an instance: core.RLSIndependent; a valid assignment
//     evaluating to the value;
//   - RLS on a graph: core.RLS; a precedence-feasible schedule that
//     sim.Replay executes under the budget ⌊δ·LB⌋ to the same value.
//
// Every RLS witness respects the Lemma 4 cap of ⌊m/(δ−1)⌋ marked
// processors. It returns the number of runs checked.
func checkWitnesses(t *testing.T, item BatchItem, cfg Config, res *Result) int {
	t.Helper()
	algC, algM := cfg.AlgC, cfg.AlgM
	if algC == nil {
		algC = makespan.LPT{}
	}
	if algM == nil {
		algM = makespan.LPT{}
	}
	checked := 0
	for _, r := range res.Runs {
		if r.Err != nil {
			continue
		}
		checked++
		var rls *core.RLSResult
		switch {
		case r.Algorithm == AlgSBO:
			w, err := core.SBO(item.Instance, r.Delta, algC, algM)
			if err != nil {
				t.Fatalf("%s: rebuild: %v", r.Label(), err)
			}
			if err := item.Instance.ValidateAssignment(w.Assignment); err != nil {
				t.Errorf("%s: rebuilt assignment invalid: %v", r.Label(), err)
			}
			if got := item.Instance.Eval(w.Assignment); got != r.Value {
				t.Errorf("%s: rebuilt assignment evaluates to %v, run value %v", r.Label(), got, r.Value)
			}
			if float64(w.Cmax) > w.CmaxBound()+1e-9 || float64(w.Mmax) > w.MmaxBound()+1e-9 {
				t.Errorf("%s: (%d,%d) exceeds the Property 1–2 bounds (%.2f,%.2f)",
					r.Label(), w.Cmax, w.Mmax, w.CmaxBound(), w.MmaxBound())
			}
		case item.Graph == nil:
			w, err := core.RLSIndependent(item.Instance, r.Delta, r.Tie)
			if err != nil {
				t.Fatalf("%s: rebuild: %v", r.Label(), err)
			}
			a := w.Schedule.Assignment()
			if err := item.Instance.ValidateAssignment(a); err != nil {
				t.Errorf("%s: rebuilt assignment invalid: %v", r.Label(), err)
			}
			if got := item.Instance.Eval(a); got != r.Value {
				t.Errorf("%s: rebuilt assignment evaluates to %v, run value %v", r.Label(), got, r.Value)
			}
			rls = w
		default:
			g := item.Graph
			w, err := core.RLS(g, r.Delta, r.Tie)
			if err != nil {
				t.Fatalf("%s: rebuild: %v", r.Label(), err)
			}
			if err := w.Schedule.Validate(g.PredLists()); err != nil {
				t.Errorf("%s: rebuilt schedule violates precedence: %v", r.Label(), err)
			}
			rep, err := sim.Replay(w.Schedule, g.PredLists(), w.Cap)
			if err != nil {
				t.Errorf("%s: rebuilt schedule fails replay under cap %d: %v", r.Label(), w.Cap, err)
			} else if (model.Value{Cmax: rep.Cmax, Mmax: rep.Mmax}) != r.Value {
				t.Errorf("%s: replay reaches (%d,%d), run value %v", r.Label(), rep.Cmax, rep.Mmax, r.Value)
			}
			rls = w
		}
		if rls == nil {
			continue
		}
		if got := (model.Value{Cmax: rls.Cmax, Mmax: rls.Mmax}); got != r.Value {
			t.Errorf("%s: rebuilt witness %v, run value %v", r.Label(), got, r.Value)
		}
		if want, err := core.MemCap(r.Delta, rls.LB); err != nil || rls.Cap != want || rls.Mmax > rls.Cap {
			t.Errorf("%s: Mmax %d, cap %d, want cap floor(δ·LB) = %d (%v)", r.Label(), rls.Mmax, rls.Cap, want, err)
		}
		m := res.Bounds.M
		if limit := int(float64(m) / (r.Delta - 1)); rls.MarkedCount() > limit {
			t.Errorf("%s: %d marked processors exceed the Lemma 4 cap %d", r.Label(), rls.MarkedCount(), limit)
		}
	}
	return checked
}

// TestSweepRunsHaveWitnesses applies the witness property to every
// successful run of a mixed batch of instances and graphs, and of the
// same batch refined (coarse and refinement runs merged), under the
// default and non-default sub-algorithms and tie sets.
func TestSweepRunsHaveWitnesses(t *testing.T) {
	items := append(mixedItems(),
		BatchItem{Instance: gen.Anticorrelated(50, 5, 3)},
		BatchItem{Instance: model.NewInstance(3, []model.Time{4, 2, 7, 1}, []model.Mem{0, 0, 0, 0})},
		BatchItem{Graph: gen.Chain(2, 12, 4)},
	)
	for _, cfg := range []Config{
		{Deltas: mustGrid(GeometricGrid(0.25, 8, 9))},
		{Deltas: []float64{0.5, 2, 3.25}, AlgC: makespan.ListScheduling{}, AlgM: makespan.Multifit{},
			Ties: []core.TieBreak{core.TieBottomLevel, core.TieSPT}},
	} {
		for _, plan := range []Planner{nil, fixedPlanner(0.75, 2.2, 5.5)} {
			checked := 0
			emit := func(br BatchResult) error {
				if br.Err != nil {
					t.Fatalf("item %d: %v", br.Index, br.Err)
				}
				checked += checkWitnesses(t, items[br.Index], cfg, br.Result)
				return nil
			}
			var err error
			if plan == nil {
				err = SweepBatch(context.Background(), itemsSeq(items), BatchConfig{Config: cfg}, emit)
			} else {
				err = SweepBatchRefined(context.Background(), itemsSeq(items), BatchConfig{Config: cfg}, plan, emit)
			}
			if err != nil {
				t.Fatal(err)
			}
			if checked == 0 {
				t.Fatal("no run checked")
			}
		}
	}
}
