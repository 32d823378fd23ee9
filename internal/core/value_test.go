package core

import (
	"fmt"
	"math"
	"testing"

	"storagesched/internal/bounds"
	"storagesched/internal/gen"
	"storagesched/internal/makespan"
	"storagesched/internal/model"
)

// TestSBOValueMatchesRun checks the value form of the Algorithm 1 merge
// against the witness form, SBO(...), on one reused Scratch: equal
// (Cmax, Mmax) on every instance and δ, including the all-zero-s
// instance (M = 0, every task on π1) and huge values, and the same
// error for every δ SBO rejects.
func TestSBOValueMatchesRun(t *testing.T) {
	type tc struct {
		name string
		in   *model.Instance
		algs []makespan.Algorithm
	}
	cases := []tc{
		{"all-zero-s", model.NewInstance(2, []model.Time{5, 7, 3}, []model.Mem{0, 0, 0}), nil},
		{"equal-p", model.NewInstance(3, []model.Time{1, 1, 1, 1}, []model.Mem{4, 1, 0, 2}), nil},
		{"one-task", model.NewInstance(4, []model.Time{9}, []model.Mem{2}), nil},
		{"huge", model.NewInstance(2, []model.Time{1 << 40, 1<<40 - 1, 3}, []model.Mem{1 << 39, 5, 1<<40 + 7}), nil},
	}
	for _, fam := range gen.Families() {
		cases = append(cases, tc{fam.Name, fam.Gen(80, 6, 3),
			[]makespan.Algorithm{makespan.ListScheduling{}, makespan.LPT{}}})
	}
	scr := NewScratch()
	deltas := []float64{1.0 / 64, 0.25, 0.5, 1, 1.5, 2, 3, 8, 64}
	for _, c := range cases {
		algs := c.algs
		if algs == nil {
			algs = []makespan.Algorithm{makespan.LPT{}}
		}
		for _, alg := range algs {
			prep, err := PrepareSBO(c.in, alg, alg)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range deltas {
				name := fmt.Sprintf("%s %T δ=%g", c.name, alg, d)
				want, err := SBO(c.in, d, alg, alg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, err := prep.Value(d, scr)
				if err != nil {
					t.Fatalf("%s: Value: %v", name, err)
				}
				if got != (model.Value{Cmax: want.Cmax, Mmax: want.Mmax}) {
					t.Errorf("%s: Value %v, SBO (%d,%d)", name, got, want.Cmax, want.Mmax)
				}
				if got != c.in.Eval(want.Assignment) {
					t.Errorf("%s: Value %v, witness evaluates to %v", name, got, c.in.Eval(want.Assignment))
				}
			}
		}
	}
	if v, _ := mustPrepareSBO(t, cases[0].in).Value(2, scr); v.Mmax != 0 {
		t.Errorf("all-zero-s: Mmax = %d, want 0", v.Mmax)
	}
	prep := mustPrepareSBO(t, cases[len(cases)-1].in)
	for _, d := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		_, runErr := prep.Run(d)
		_, valErr := prep.Value(d, scr)
		if runErr == nil || valErr == nil || runErr.Error() != valErr.Error() {
			t.Errorf("δ=%g: Run error %v, Value error %v", d, runErr, valErr)
		}
	}
}

func mustPrepareSBO(t *testing.T, in *model.Instance) *SBOPrepared {
	t.Helper()
	prep, err := PrepareSBO(in, makespan.LPT{}, makespan.LPT{})
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

// TestRLSValueMatchesRun checks the prepared RLS value entries against
// their witness forms, errors included, and the prepared independent
// LB against bounds.MemLB.
func TestRLSValueMatchesRun(t *testing.T) {
	scr := NewScratch()
	for _, fam := range gen.Families() {
		in := fam.Gen(70, 5, 2)
		prep, err := PrepareRLSIndependent(in)
		if err != nil {
			t.Fatal(err)
		}
		if want := bounds.MemLB(in.S(), in.M); prep.LB() != want {
			t.Errorf("%s: prepared LB %d, MemLB %d", fam.Name, prep.LB(), want)
		}
		for _, tie := range allTies {
			for _, d := range []float64{1, 2, 2.5, 4, math.NaN()} {
				res, runErr := prep.Run(d, tie)
				v, valErr := prep.Value(d, tie, scr)
				checkValueForm(t, fmt.Sprintf("%s %s δ=%g", fam.Name, tie, d), v, valErr, res, runErr)
			}
		}
	}
	for _, fam := range gen.DAGFamilies() {
		g := fam.Gen(4, 50, 1)
		prep, err := PrepareRLS(g, TieSPT, TieBottomLevel)
		if err != nil {
			t.Fatal(err)
		}
		for _, tie := range allTies {
			for _, d := range []float64{1.5, 2, 3, 6} {
				res, runErr := prep.Run(d, tie)
				v, valErr := prep.Value(d, tie, scr)
				checkValueForm(t, fmt.Sprintf("%s %s δ=%g", fam.Name, tie, d), v, valErr, res, runErr)
			}
		}
	}
}

func checkValueForm(t *testing.T, name string, v model.Value, valErr error, res *RLSResult, runErr error) {
	t.Helper()
	if (valErr == nil) != (runErr == nil) || (runErr != nil && valErr.Error() != runErr.Error()) {
		t.Fatalf("%s: Value error %v, Run error %v", name, valErr, runErr)
	}
	if runErr == nil && v != (model.Value{Cmax: res.Cmax, Mmax: res.Mmax}) {
		t.Errorf("%s: Value %v, Run (%d,%d)", name, v, res.Cmax, res.Mmax)
	}
}

// TestValueAllocatesNothing pins the three value entries the sweep
// engine's workers call at zero allocations with a warm Scratch.
func TestValueAllocatesNothing(t *testing.T) {
	in := gen.Uniform(120, 8, 1)
	g := gen.LayeredDAG(8, 12, 4, 3)
	sbo := mustPrepareSBO(t, in)
	rls, err := PrepareRLSIndependent(in)
	if err != nil {
		t.Fatal(err)
	}
	graph, err := PrepareRLS(g)
	if err != nil {
		t.Fatal(err)
	}
	scr := NewScratch()
	for name, run := range map[string]func() error{
		"SBOPrepared.Value": func() error { _, err := sbo.Value(1.5, scr); return err },
		"RLSPrepared.Value": func() error { _, err := rls.Value(3, TieSPT, scr); return err },
		"RLSGraphPrepared.Value": func() error {
			_, err := graph.Value(3, TieBottomLevel, scr)
			return err
		},
	} {
		if err := run(); err != nil { // warm the scratch
			t.Fatalf("%s: %v", name, err)
		}
		if allocs := testing.AllocsPerRun(50, func() { _ = run() }); allocs != 0 {
			t.Errorf("%s: %.1f allocations per run with a warm Scratch, want 0", name, allocs)
		}
	}
}
