// Package pareto enumerates the exact Pareto front of small
// independent-task instances of P | p_j, s_j | Cmax, Mmax. Section 4
// of the paper derives its inapproximability results from the exact
// fronts of three instance families; this package recomputes those
// fronts mechanically (branch-and-bound over assignments with
// machine-symmetry and dominance pruning) so Figures 1 and 2 and
// Lemmas 1–3 can be verified rather than transcribed. EpsilonIndicator
// and Hypervolume score the approximate fronts of δ-sweeps against
// those exact fronts.
package pareto

import (
	"fmt"
	"math"
	"sort"

	"storagesched/internal/model"
)

// Point is one Pareto-optimal objective value together with a witness
// assignment achieving it.
type Point struct {
	Value      model.Value
	Assignment model.Assignment
}

// MaxTasks guards the exhaustive search; fronts are exponential to
// enumerate and anything beyond this is a programming error, not a
// workload.
const MaxTasks = 24

// Front returns the exact Pareto front of the instance, sorted by
// increasing Cmax (hence decreasing Mmax). One witness assignment is
// kept per distinct non-dominated value.
func Front(in *model.Instance) ([]Point, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := in.N()
	if n > MaxTasks {
		return nil, fmt.Errorf("pareto: n = %d exceeds the enumeration limit %d", n, MaxTasks)
	}
	if n == 0 {
		return []Point{{Value: model.Value{}, Assignment: model.Assignment{}}}, nil
	}

	// Visit heavy tasks first: partial loads climb quickly, so the
	// dominance pruning bites earlier.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		wa := in.Tasks[order[a]].P + model.Time(in.Tasks[order[a]].S)
		wb := in.Tasks[order[b]].P + model.Time(in.Tasks[order[b]].S)
		if wa != wb {
			return wa > wb
		}
		return order[a] < order[b]
	})

	// Global lower bounds: any completion's objectives are at least
	// these, which sharpens the dominance test near the root.
	var totalP model.Time
	var totalS model.Mem
	for _, t := range in.Tasks {
		totalP += t.P
		totalS += t.S
	}
	m64 := int64(in.M)
	globalC := (totalP + m64 - 1) / m64
	globalM := (totalS + m64 - 1) / m64

	e := &enumerator{
		in:      in,
		order:   order,
		loads:   make([]model.Time, in.M),
		mems:    make([]model.Mem, in.M),
		assign:  make(model.Assignment, n),
		globalC: globalC,
		globalM: globalM,
	}
	e.rec(0, 0)

	pts := e.archive
	sort.Slice(pts, func(a, b int) bool { return pts[a].Value.Cmax < pts[b].Value.Cmax })
	return pts, nil
}

type enumerator struct {
	in      *model.Instance
	order   []int
	loads   []model.Time
	mems    []model.Mem
	assign  model.Assignment
	archive []Point

	globalC model.Time
	globalM model.Mem
}

// dominatedByArchive reports whether some archived value weakly
// dominates (c, m); any branch whose objective lower bound is weakly
// dominated cannot contribute a new front value.
func (e *enumerator) dominatedByArchive(c model.Time, m model.Mem) bool {
	for _, p := range e.archive {
		if p.Value.Cmax <= c && p.Value.Mmax <= m {
			return true
		}
	}
	return false
}

// insert adds a value to the archive, dropping the newly dominated.
func (e *enumerator) insert(v model.Value, a model.Assignment) {
	kept := e.archive[:0]
	for _, p := range e.archive {
		if v.Dominates(p.Value) {
			continue
		}
		kept = append(kept, p)
	}
	e.archive = kept
	e.archive = append(e.archive, Point{Value: v, Assignment: append(model.Assignment(nil), a...)})
}

func (e *enumerator) rec(k int, usedProcs int) {
	// Current partial maxima are lower bounds on any completion.
	var curC model.Time
	var curM model.Mem
	for q := 0; q < e.in.M; q++ {
		if e.loads[q] > curC {
			curC = e.loads[q]
		}
		if e.mems[q] > curM {
			curM = e.mems[q]
		}
	}
	if curC < e.globalC {
		curC = e.globalC
	}
	if curM < e.globalM {
		curM = e.globalM
	}
	if e.dominatedByArchive(curC, curM) {
		return
	}
	if k == len(e.order) {
		v := e.in.Eval(e.assign)
		if !e.dominatedByArchive(v.Cmax, v.Mmax) {
			e.insert(v, e.assign)
		}
		return
	}
	i := e.order[k]
	t := e.in.Tasks[i]
	// Machine symmetry: the task may open at most one fresh
	// processor.
	limit := usedProcs + 1
	if limit > e.in.M {
		limit = e.in.M
	}
	for q := 0; q < limit; q++ {
		e.assign[i] = q
		e.loads[q] += t.P
		e.mems[q] += t.S
		next := usedProcs
		if q == usedProcs {
			next++
		}
		e.rec(k+1, next)
		e.loads[q] -= t.P
		e.mems[q] -= t.S
	}
}

// BruteForceFront enumerates all m^n assignments without pruning — a
// reference implementation for cross-checking Front on tiny instances.
func BruteForceFront(in *model.Instance) ([]Point, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := in.N()
	if n > 12 {
		return nil, fmt.Errorf("pareto: brute force limited to n <= 12, got %d", n)
	}
	var pts []Point
	a := make(model.Assignment, n)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			v := in.Eval(a)
			pts = insertValue(pts, v, a)
			return
		}
		for q := 0; q < in.M; q++ {
			a[k] = q
			rec(k + 1)
		}
	}
	rec(0)
	sort.Slice(pts, func(x, y int) bool { return pts[x].Value.Cmax < pts[y].Value.Cmax })
	return pts, nil
}

func insertValue(pts []Point, v model.Value, a model.Assignment) []Point {
	for _, p := range pts {
		if p.Value.WeaklyDominates(v) {
			return pts
		}
	}
	kept := pts[:0]
	for _, p := range pts {
		if v.Dominates(p.Value) {
			continue
		}
		kept = append(kept, p)
	}
	return append(kept, Point{Value: v, Assignment: append(model.Assignment(nil), a...)})
}

// Values extracts just the objective values of a front.
func Values(pts []Point) []model.Value {
	vs := make([]model.Value, len(pts))
	for i, p := range pts {
		vs[i] = p.Value
	}
	return vs
}

// FilterDominated returns the non-dominated subset of values (one
// representative per distinct value), sorted by Cmax.
func FilterDominated(vs []model.Value) []model.Value {
	var out []model.Value
	for _, v := range vs {
		dominated := false
		for _, w := range vs {
			if w != v && w.WeaklyDominates(v) && (w.Cmax < v.Cmax || w.Mmax < v.Mmax) {
				dominated = true
				break
			}
		}
		if !dominated {
			dup := false
			for _, o := range out {
				if o == v {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, v)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Cmax < out[b].Cmax })
	return out
}

// SameFront reports whether two fronts carry exactly the same values
// in the same (sorted) order.
func SameFront(a, b []model.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// EpsilonIndicator measures approximation quality against a reference
// front: the smallest ε such that for every reference value r some
// generated value g satisfies g.Cmax ≤ (1+ε)·r.Cmax and
// g.Mmax ≤ (1+ε)·r.Mmax. Zero means the generated set weakly
// dominates the whole reference front.
func EpsilonIndicator(generated, reference []model.Value) float64 {
	if len(reference) == 0 {
		return 0
	}
	if len(generated) == 0 {
		return math.Inf(1)
	}
	worst := 0.0
	for _, r := range reference {
		best := math.Inf(1)
		for _, g := range generated {
			e := 0.0
			if r.Cmax > 0 {
				e = math.Max(e, float64(g.Cmax)/float64(r.Cmax)-1)
			} else if g.Cmax > 0 {
				e = math.Inf(1)
			}
			if r.Mmax > 0 {
				e = math.Max(e, float64(g.Mmax)/float64(r.Mmax)-1)
			} else if g.Mmax > 0 {
				e = math.Inf(1)
			}
			best = math.Min(best, e)
		}
		worst = math.Max(worst, best)
	}
	return worst
}

// Hypervolume returns the area of the objective-space region dominated
// by the front, relative to a reference (nadir) point. Larger is
// better; it compares the fronts of different sweep configurations.
func Hypervolume(front []model.Value, refC model.Time, refM model.Mem) float64 {
	pts := append([]model.Value(nil), front...)
	sort.Slice(pts, func(a, b int) bool { return pts[a].Cmax < pts[b].Cmax })
	area := 0.0
	prevM := refM
	for _, p := range pts {
		if p.Cmax > refC || p.Mmax > refM {
			continue
		}
		if p.Mmax < prevM {
			area += float64(refC-p.Cmax) * float64(prevM-p.Mmax)
			prevM = p.Mmax
		}
	}
	return area
}
