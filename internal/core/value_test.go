package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"storagesched/internal/bounds"
	"storagesched/internal/dag"
	"storagesched/internal/gen"
	"storagesched/internal/hardness"
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
// engine's workers call at zero allocations with a warm Scratch. The
// RLS entries are pinned twice: at a δ the cap-free memo answers, and
// on AdversarialCross at δ = 2, where the cap binds and the loops run.
func TestValueAllocatesNothing(t *testing.T) {
	in := gen.Uniform(120, 8, 1)
	g := gen.LayeredDAG(8, 12, 4, 3)
	cross := gen.AdversarialCross(4, 400)
	sbo := mustPrepareSBO(t, in)
	rls, err := PrepareRLSIndependent(in)
	if err != nil {
		t.Fatal(err)
	}
	graph, err := PrepareRLS(g)
	if err != nil {
		t.Fatal(err)
	}
	rlsBound, err := PrepareRLSIndependent(cross)
	if err != nil {
		t.Fatal(err)
	}
	graphBound, err := PrepareRLS(dag.FromInstance(cross))
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
		"RLSPrepared.Value binding cap": func() error { _, err := rlsBound.Value(2, TieLPT, scr); return err },
		"RLSGraphPrepared.Value binding cap": func() error {
			_, err := graphBound.Value(2, TieLPT, scr)
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
	cap, err := MemCap(2, rlsBound.LB())
	if err != nil {
		t.Fatal(err)
	}
	if !rlsBound.free[TieLPT].binds(cap) || !graphBound.free[TieLPT].binds(cap) {
		t.Errorf("the binding-cap cases are answered from the memo; they must run the loops")
	}
}

// valueOracle compares a prepared RLS solver's Value with a fresh
// capped run of the same tie-break under ⌊δ·LB⌋, and counts how the
// Value calls were answered.
type valueOracle struct {
	t     testing.TB
	scr   *Scratch
	memo  int // calls the cap-free memo answered
	bound int // calls whose cap bound, so the loop ran
}

// check calls value at every δ, in the order given, on every tie, and
// requires the oracle's value and error each time. free is the
// solver's memo array, read after each call to tell the two paths
// apart.
func (o *valueOracle) check(name string, lb model.Mem, free *[numTies]capFree, deltas []float64,
	value func(float64, TieBreak, *Scratch) (model.Value, error),
	capped func(model.Mem, TieBreak) (*RLSResult, error)) {
	o.t.Helper()
	for _, tie := range allTies {
		for _, d := range deltas {
			label := fmt.Sprintf("%s %s δ=%g", name, tie, d)
			cap, err := MemCap(d, lb)
			if err != nil {
				o.t.Fatalf("%s: %v", label, err)
			}
			got, gotErr := value(d, tie, o.scr)
			want, wantErr := capped(cap, tie)
			checkValueAgainstRef(o.t, label, got, gotErr, want, wantErr)
			if free[tie].binds(cap) {
				o.bound++
			} else {
				o.memo++
			}
		}
	}
}

func (o *valueOracle) instance(name string, in *model.Instance, deltas []float64) {
	o.t.Helper()
	prep, err := PrepareRLSIndependent(in)
	if err != nil {
		o.t.Fatalf("%s: %v", name, err)
	}
	o.check(name, prep.LB(), &prep.free, deltas, prep.Value,
		func(cap model.Mem, tie TieBreak) (*RLSResult, error) { return cappedRLSIndependent(in, cap, tie) })
}

func (o *valueOracle) graph(name string, g *dag.Graph, deltas []float64) {
	o.t.Helper()
	prep, err := PrepareRLS(g)
	if err != nil {
		o.t.Fatalf("%s: %v", name, err)
	}
	o.check(name, prep.LB(), &prep.free, deltas, prep.Value,
		func(cap model.Mem, tie TieBreak) (*RLSResult, error) { return cappedRLS(g, cap, tie) })
}

// TestRLSValueMatchesCappedRun holds both prepared RLS value entries
// to a fresh capped run at every δ of a dense grid from 2 to 8: every
// instance and DAG family at n ∈ {20, 60, 200} and m ∈ {3, 8, 16}, the
// Lemma 1 and Lemma 3 instances, and AdversarialCross, whose caps bind
// at small δ. The grid runs upward on some items and downward on
// others, so the memo is filled both by a call it answers and by one
// whose cap binds. Both paths must be taken.
func TestRLSValueMatchesCappedRun(t *testing.T) {
	var up []float64
	for d := 2.0; d <= 8; d += 0.125 {
		up = append(up, d)
	}
	down := slices.Clone(up)
	slices.Reverse(down)
	grids := [][]float64{up, down}
	o := &valueOracle{t: t, scr: NewScratch()}
	k := 0
	for _, n := range []int{20, 60, 200} {
		for _, m := range []int{3, 8, 16} {
			for _, fam := range gen.Families() {
				o.instance(fmt.Sprintf("%s n=%d m=%d", fam.Name, n, m), fam.Gen(n, m, int64(n+m)), grids[k%2])
				k++
			}
			for _, fam := range gen.DAGFamilies() {
				o.graph(fmt.Sprintf("%s n=%d m=%d", fam.Name, n, m), fam.Gen(m, n, int64(n+m)), grids[k%2])
				k++
			}
		}
	}
	o.instance("lemma1", hardness.Lemma1Instance(hardness.DefaultScale), up)
	o.instance("lemma3", hardness.Lemma3Instance(hardness.DefaultScale, 1), down)
	for m := 2; m <= 16; m++ {
		in := gen.AdversarialCross(m, int64(100*m))
		o.instance(fmt.Sprintf("cross m=%d", m), in, grids[m%2])
		o.graph(fmt.Sprintf("cross m=%d edgeless", m), dag.FromInstance(in), grids[(m+1)%2])
	}
	if o.memo == 0 || o.bound == 0 {
		t.Errorf("Value calls: %d from the memo, %d with a binding cap; want both > 0", o.memo, o.bound)
	}
	t.Logf("Value calls: %d from the memo, %d with a binding cap", o.memo, o.bound)
}

// TestRLSValueOverflowingSizes pins the guard of the memo: when the
// sizes' total overflows an int64, no cap-free value is memoized and
// Value keeps to the capped loop. Here four tasks of size 2^61 reach
// processor 0 in the cap-free run, whose memory wraps negative, so its
// Mmax reads as if the cap never bound; under the cap of δ = 2 the
// third of them goes to processor 1 instead.
func TestRLSValueOverflowingSizes(t *testing.T) {
	const l = model.Mem(1) << 61
	p := []model.Time{1, 1, 1, 1, 1, 1, 1, 1}
	s := []model.Mem{l, 0, l, 0, l, 0, l, 0}
	o := &valueOracle{t: t, scr: NewScratch()}
	o.instance("overflow", model.NewInstance(2, p, s), []float64{2})
	o.graph("overflow edgeless", dag.New(2, p, s), []float64{2})
	if o.memo != 0 {
		t.Errorf("%d Value calls answered from a memo whose run overflowed", o.memo)
	}
}

// TestRLSValueConcurrent calls Value on shared prepared solvers from
// several goroutines at once, each walking the δ-grid from a different
// start so the memo of every tie is raced for, and requires the values
// of a serial run on a fresh solver. Run it with -race.
func TestRLSValueConcurrent(t *testing.T) {
	in := gen.AdversarialCross(4, 400)
	g := gen.LayeredDAG(4, 10, 4, 2)
	deltas := []float64{2, 2.5, 3, 4, 5.5, 8}
	type solver func(float64, TieBreak, *Scratch) (model.Value, error)
	prepI, err := PrepareRLSIndependent(in)
	if err != nil {
		t.Fatal(err)
	}
	prepG, err := PrepareRLS(g)
	if err != nil {
		t.Fatal(err)
	}
	shared := []solver{prepI.Value, prepG.Value}
	want := make([][numTies][]model.Value, len(shared))
	for k, fresh := range []func() (solver, error){
		func() (solver, error) { p, err := PrepareRLSIndependent(in); return p.Value, err },
		func() (solver, error) { p, err := PrepareRLS(g); return p.Value, err },
	} {
		value, err := fresh()
		if err != nil {
			t.Fatal(err)
		}
		for _, tie := range allTies {
			for _, d := range deltas {
				v, err := value(d, tie, nil)
				if err != nil {
					t.Fatal(err)
				}
				want[k][tie] = append(want[k][tie], v)
			}
		}
	}
	const goroutines = 6
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scr := NewScratch()
			for step := range len(deltas) * numTies {
				i := (w + step) % len(deltas)
				tie := TieBreak((w + step/len(deltas)) % numTies)
				for k, value := range shared {
					v, err := value(deltas[i], tie, scr)
					if err == nil && v != want[k][tie][i] {
						err = fmt.Errorf("solver %d %s δ=%g: %v, serial %v", k, tie, deltas[i], v, want[k][tie][i])
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// FuzzRLSValue decodes a small task DAG as FuzzRLSLoop does, then a
// sequence of δ values, and calls both prepared value entries — on the
// DAG and on its tasks as an independent instance — at those δ in the
// fuzzer's order, each against a fresh capped run.
func FuzzRLSValue(f *testing.F) {
	f.Add([]byte{2, 3, 1, 0, 2, 5, 0, 1, 1, 1, 2, 0, 2}, []byte{0, 32, 200, 5})
	f.Add([]byte{0, 0, 0, 0, 0}, []byte{})
	f.Add([]byte{4, 9, 9, 1, 1, 1, 1, 0, 7, 3, 3, 2, 2, 0, 1, 1, 2, 2, 3, 3, 4}, []byte{255, 0, 17, 17, 64})
	f.Add([]byte{1, 8, 15, 1, 1, 15, 15, 2, 2, 14, 3, 3, 14, 1, 1, 15, 0, 0}, []byte{0, 1, 2, 3, 255, 128})
	f.Fuzz(func(t *testing.T, data, steps []byte) {
		if len(data) < 2 || len(steps) > 64 {
			return
		}
		m := 1 + int(data[0]%6)
		n := int(data[1] % 24)
		data = data[2:]
		if len(data) < 2*n {
			n = len(data) / 2
		}
		p := make([]model.Time, n)
		s := make([]model.Mem, n)
		for i := 0; i < n; i++ {
			p[i] = 1 + model.Time(data[2*i]%16)
			s[i] = model.Mem(data[2*i+1] % 16)
		}
		g := dag.New(m, p, s)
		for _, b := range data[2*n:] {
			if n < 2 {
				break
			}
			u, v := int(b>>4)%n, int(b&15)%n
			if u > v {
				u, v = v, u
			}
			if u != v {
				g.AddEdge(u, v)
			}
		}
		// δ from 2 to 10 in steps of 1/32.
		deltas := make([]float64, len(steps))
		for i, b := range steps {
			deltas[i] = 2 + float64(b)/32
		}
		o := &valueOracle{t: t, scr: NewScratch()}
		o.graph("fuzz", g, deltas)
		o.instance("fuzz", model.NewInstance(m, p, s), deltas)
	})
}
