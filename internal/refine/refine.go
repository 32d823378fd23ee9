// Package refine turns fixed δ-grids into adaptive ones: it scores the
// gaps of a swept Pareto front and emits a refinement grid that places
// new δ values exactly where the front bends.
//
// A fixed geometric grid spends runs uniformly in log-δ space, but the
// (1+δ, 1+1/δ) trade-off is nothing like uniform in objective space:
// fronts are flat across most of the grid and bend sharply near the
// storage-constraint boundary, so a fixed grid over-samples the flats
// and under-samples the bends — the region the bicriteria guarantee is
// about. The refinement rule is purely geometric: adjacent front
// points whose relative gap in (makespan, memory) space exceeds
// Config.Gap get new δ values geometrically subdivided between their
// witness runs' δ parameters, largest gaps first, up to
// Config.MaxPoints per item.
//
// SweepBatchAdaptive is the adaptive sweep built on this scorer: one
// engine.SweepBatchRefined batch in which each item runs a coarse
// phase, Grid plans its refinement grid from the coarse front the
// moment that phase is done, and a refinement phase runs in the same
// pool against the item's already-prepared state — each item is
// prepared once. Coarse and refined runs merge into one deduplicated
// front per item, streamed in input order while later items are still
// being read, so memory is O(MaxPending) like any batch; the item's
// coarse and refined cache entries are both written when it is
// emitted. Fronts are byte-deterministic for a fixed input, whatever
// the worker count.
package refine

import (
	"fmt"
	"math"
	"sort"

	"storagesched/internal/engine"
)

// DefaultGap is the relative-gap threshold used when Config.Gap is 0:
// adjacent front points further than 25% apart (in either objective,
// relative to the larger value) trigger refinement between them.
const DefaultGap = 0.25

// DefaultMaxPoints is the per-item refinement-grid bound used when
// Config.MaxPoints is 0.
const DefaultMaxPoints = 8

// Config parameterizes adaptive refinement.
type Config struct {
	// Gap is the relative-gap threshold above which the span between
	// two adjacent front points is refined. The gap of a pair is
	// max(ΔCmax/Cmax_hi, ΔMmax/Mmax_hi) — the larger of the two
	// objectives' relative jumps — so it is scale-free and lies in
	// [0, 1). 0 means DefaultGap; it must otherwise be a positive
	// finite number.
	Gap float64

	// MaxPoints bounds the refinement grid of one item: at most this
	// many new δ values are planned per item, allocated to the flagged
	// gaps largest-first. 0 means DefaultMaxPoints; it must otherwise
	// be positive.
	MaxPoints int
}

// Normalized applies the documented defaults and rejects unusable
// values — the check every front end runs on its refine parameters
// before a sweep is admitted.
func (c Config) Normalized() (Config, error) {
	if c.Gap == 0 {
		c.Gap = DefaultGap
	}
	if !(c.Gap > 0) || math.IsInf(c.Gap, 0) {
		return c, fmt.Errorf("refine: gap threshold %g, need a positive finite number", c.Gap)
	}
	if c.MaxPoints == 0 {
		c.MaxPoints = DefaultMaxPoints
	}
	if c.MaxPoints < 0 {
		return c, fmt.Errorf("refine: max points %d, need a positive count", c.MaxPoints)
	}
	return c, nil
}

// span is one flagged front gap: the δ-interval between the witness
// runs of two adjacent front points whose relative objective gap
// exceeds the threshold.
type span struct {
	lo, hi float64 // witness δ interval, lo < hi
	score  float64 // relative gap in objective space
	order  int     // front position, the deterministic tie-break
	points int     // subdivision points allocated so far
}

// relGap is the scale-free distance between two adjacent front points
// a (lower Cmax, higher Mmax) and b: the larger of the two objectives'
// relative jumps, each normalized by the pair's larger value. A
// non-positive denominator (degenerate zero objectives) contributes
// nothing rather than dividing by zero.
func relGap(a, b engine.FrontPoint) float64 {
	var gC, gM float64
	if b.Value.Cmax > 0 {
		gC = float64(b.Value.Cmax-a.Value.Cmax) / float64(b.Value.Cmax)
	}
	if a.Value.Mmax > 0 {
		gM = float64(a.Value.Mmax-b.Value.Mmax) / float64(a.Value.Mmax)
	}
	return math.Max(gC, gM)
}

// Grid plans the refinement δ-grid for one swept item from its coarse
// Result. graph marks task-DAG items, whose refinement runs the RLS
// family only: every planned point is clamped to δ ≥ 2 (sub-2 points
// would select no runs). The returned grid is sorted ascending,
// contains no duplicates and shares no point with the coarse Runs —
// re-sweeping it adds information or nothing is returned at all.
//
// A front with fewer than two points has no gap to score: Grid returns
// nil for empty and single-point fronts (and for fronts whose flagged
// gaps collapse to a single witness δ), never a spurious refinement
// job. The plan is a pure function of the Result, so adaptive sweeps
// stay deterministic whatever the worker count.
func Grid(res *engine.Result, graph bool, cfg Config) ([]float64, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	if res == nil || len(res.Front) < 2 {
		return nil, nil
	}

	// The δ values the coarse pass actually ran, sorted: the spans
	// below widen each flagged witness interval to the grid points
	// bracketing it — achieved values are stepwise in δ, and the step
	// realizing an intermediate value regularly lies on the plateau
	// just outside the witnesses, which the coarse grid has only
	// sampled at its own (too coarse) spacing.
	coarseDeltas := make([]float64, 0, len(res.Runs))
	for _, r := range res.Runs {
		coarseDeltas = append(coarseDeltas, r.Delta)
	}
	sort.Float64s(coarseDeltas)
	coarseDeltas = dedupSorted(coarseDeltas)

	// Score adjacent pairs of the (Cmax-sorted) front and keep the
	// spans that both exceed the threshold and have a nondegenerate
	// δ-interval to subdivide.
	var spans []*span
	for i := 1; i < len(res.Front); i++ {
		a, b := res.Front[i-1], res.Front[i]
		score := relGap(a, b)
		if score <= cfg.Gap {
			continue
		}
		da := res.Runs[a.RunIndex].Delta
		db := res.Runs[b.RunIndex].Delta
		lo, hi := bracket(coarseDeltas, math.Min(da, db), math.Max(da, db))
		if graph && lo < 2 {
			lo = 2
		}
		if !(lo < hi) {
			continue
		}
		spans = append(spans, &span{lo: lo, hi: hi, score: score, order: i})
	}
	if len(spans) == 0 {
		return nil, nil
	}
	// Allocate the point budget one δ at a time to the span whose
	// subdivision is currently the coarsest (largest per-interval
	// geometric ratio), so the refined grid approaches uniform
	// geometric density across every flagged region — a wide span gets
	// proportionally more points, and a single huge gap cannot starve
	// the rest. Exact density ties break by gap score, then by front
	// position, so the plan never depends on sort stability.
	spacing := func(sp *span) float64 {
		return math.Pow(sp.hi/sp.lo, 1/float64(sp.points+1))
	}
	for budget := cfg.MaxPoints; budget > 0; budget-- {
		best := spans[0]
		for _, sp := range spans[1:] {
			ds, bs := spacing(sp), spacing(best)
			if ds > bs || (ds == bs && (sp.score > best.score ||
				(sp.score == best.score && sp.order < best.order))) {
				best = sp
			}
		}
		best.points++
	}

	// Materialize each span's points by geometric subdivision — the
	// natural spacing for δ — and drop anything the coarse pass
	// already ran (or that collides with another span's point): the
	// refinement pass must only ever add new grid points.
	seen := make(map[float64]bool, len(res.Runs))
	for _, r := range res.Runs {
		seen[r.Delta] = true
	}
	var grid []float64
	for _, sp := range spans {
		ratio := sp.hi / sp.lo
		for i := 1; i <= sp.points; i++ {
			d := sp.lo * math.Pow(ratio, float64(i)/float64(sp.points+1))
			if graph && d < 2 {
				continue
			}
			if !(d > 0) || math.IsInf(d, 0) || seen[d] {
				continue
			}
			seen[d] = true
			grid = append(grid, d)
		}
	}
	sort.Float64s(grid)
	return grid, nil
}

// dedupSorted removes exact duplicates from a sorted slice in place.
func dedupSorted(xs []float64) []float64 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// bracket widens the witness interval [lo, hi] to the coarse grid
// points adjacent to it: the largest grid δ below lo and the smallest
// above hi (when they exist). deltas is sorted ascending.
func bracket(deltas []float64, lo, hi float64) (float64, float64) {
	i := sort.SearchFloat64s(deltas, lo)
	if i > 0 {
		lo = deltas[i-1]
	}
	j := sort.SearchFloat64s(deltas, hi)
	// j indexes hi itself when hi is a grid point; the next point up
	// is its successor.
	for j < len(deltas) && deltas[j] <= hi {
		j++
	}
	if j < len(deltas) {
		hi = deltas[j]
	}
	return lo, hi
}

// MaxRelGap returns the largest relative gap between adjacent points
// of a (Cmax-sorted) front — the quantity refinement minimizes, and
// the quality metric the ADAPTIVE experiment compares across grids. A
// front with fewer than two points has no gap and scores 0.
func MaxRelGap(front []engine.FrontPoint) float64 {
	var worst float64
	for i := 1; i < len(front); i++ {
		if g := relGap(front[i-1], front[i]); g > worst {
			worst = g
		}
	}
	return worst
}
