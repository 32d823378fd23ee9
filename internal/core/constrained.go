package core

import (
	"errors"
	"fmt"
	"math"

	"storagesched/internal/dag"
	"storagesched/internal/makespan"
	"storagesched/internal/model"
)

// Section 7 of the paper explains how the bi-objective machinery
// recovers the original, inapproximable problem "minimize Cmax subject
// to Mmax ≤ M":
//
//   - with precedence constraints, compute the Graham lower bound LB
//     and run RLS with the budget M directly (∆ = M/LB); a solution is
//     guaranteed whenever M ≥ 2·LB and the resulting makespan carries
//     the matching Lemma 5 ratio;
//   - with independent tasks, a parameter that always yields a
//     feasible solution can be computed from Property 2, and the
//     solution is then "tentatively improved by doing a binary search
//     on the parameter".
//
// Both solvers report infeasibility exactly when M < LB (no schedule
// at all fits), and "not certified" in the narrow band LB ≤ M < 2·LB
// where the greedy may legitimately fail (the paper: "only few cases
// can not be handled ... when it is difficult to fit the tasks").

// ErrInfeasible reports that no schedule at all can respect the memory
// budget (the budget is below the Graham lower bound).
var ErrInfeasible = errors.New("core: memory budget below the Graham lower bound; no schedule exists")

// ErrNotCertified reports that the solver failed to produce a schedule
// within the budget although one may exist (budget between LB and
// 2·LB).
var ErrNotCertified = errors.New("core: no schedule found within the memory budget (budget < 2*LB, existence unknown)")

// ConstrainedDAG schedules a task DAG under a hard memory budget capM.
// On success the returned schedule satisfies Mmax ≤ capM.
//
// Each call validates, ranks and solves from scratch. A budget sweep
// over one graph should prepare once with PrepareRLS and call
// Constrained per cap instead — the δ-independent work (validation,
// topological structure, tie ranks) is then paid once for the whole
// sweep.
func ConstrainedDAG(g *dag.Graph, capM model.Mem, tie TieBreak) (*RLSResult, error) {
	prep, err := PrepareRLS(g, tie)
	if err != nil {
		return nil, err
	}
	return prep.Constrained(capM, tie)
}

// Constrained is the Section 7 DAG solver against the prepared state:
// it schedules under the hard memory budget capM via RunWithCap,
// reusing the memoized validation, lower bound and tie ranks instead
// of recomputing them per call. It reports ErrInfeasible below the
// Graham lower bound and ErrNotCertified in the [LB, 2·LB) band where
// the greedy may legitimately fail, exactly like ConstrainedDAG.
func (prep *RLSGraphPrepared) Constrained(capM model.Mem, tie TieBreak) (*RLSResult, error) {
	return constrainedRLS(prep.lb, capM, tie, prep.RunWithCap)
}

// Constrained is the independent-task mirror of the DAG solver: it
// schedules under the hard memory budget capM against the prepared
// orders via RunWithCap, with the same ErrInfeasible / ErrNotCertified
// contract. A budget sweep prepares once and calls Constrained per
// budget — the validation and tie-break orders are shared across the
// whole band.
func (prep *RLSPrepared) Constrained(capM model.Mem, tie TieBreak) (*RLSResult, error) {
	return constrainedRLS(prep.lb, capM, tie, prep.RunWithCap)
}

// constrainedRLS is the body of both RLS Constrained methods: lb is the
// prepared Graham memory lower bound and runWithCap the prepared
// RunWithCap.
func constrainedRLS(lb, capM model.Mem, tie TieBreak, runWithCap func(model.Mem, TieBreak) (*RLSResult, error)) (*RLSResult, error) {
	if capM < lb {
		return nil, fmt.Errorf("%w (LB=%d, budget=%d)", ErrInfeasible, lb, capM)
	}
	res, err := runWithCap(capM, tie)
	if err != nil {
		var tooSmall ErrCapTooSmall
		if errors.As(err, &tooSmall) {
			return nil, fmt.Errorf("%w (LB=%d, budget=%d)", ErrNotCertified, lb, capM)
		}
		return nil, err
	}
	return res, nil
}

// ConstrainedSBOResult carries the best SBO schedule found under a
// memory budget, together with the parameter search trace.
type ConstrainedSBOResult struct {
	*SBOResult

	// GuaranteedDelta is the smallest ∆ for which Property 2 alone
	// certifies feasibility: ∆ ≥ M/(capM − M) (infinite tasks-on-π2
	// when capM == M). The search always evaluates it.
	GuaranteedDelta float64

	// Tried is the number of ∆ values evaluated.
	Tried int
}

// ConstrainedSBO solves "min Cmax s.t. Mmax ≤ capM" on independent
// tasks by searching the ∆ parameter of SBO, per Section 7. steps
// controls the size of the log-spaced ∆ grid (≥ 1; 32 is plenty).
//
// Feasibility is decided by *measurement* (the achieved Mmax), so the
// result is often better than what Property 2 alone certifies. The
// search keeps the feasible schedule with the smallest measured Cmax.
func ConstrainedSBO(in *model.Instance, capM model.Mem, algC, algM makespan.Algorithm, steps int) (*ConstrainedSBOResult, error) {
	prep, err := PrepareSBO(in, algC, algM)
	if err != nil {
		return nil, err
	}
	return prep.Constrained(capM, steps)
}

// Constrained runs the ∆ parameter search against the prepared
// sub-schedules: only the per-∆ merge is paid per grid point, and a
// budget sweep reuses one prepared value for the whole band. It returns
// exactly what ConstrainedSBO returns for the same instance,
// sub-algorithms and steps.
func (prep *SBOPrepared) Constrained(capM model.Mem, steps int) (*ConstrainedSBOResult, error) {
	if steps < 1 {
		steps = 32
	}
	in := prep.in
	lb := instanceMemLB(in)
	if capM < lb {
		return nil, fmt.Errorf("%w (LB=%d, budget=%d)", ErrInfeasible, lb, capM)
	}

	// The memory sub-schedule π2 is the most memory-frugal anchor
	// SBO can reach; if even it busts the budget the SBO family
	// cannot certify this budget.
	mVal := prep.m
	if mVal > capM {
		return nil, fmt.Errorf("%w (memory sub-schedule reaches Mmax=%d > budget=%d)", ErrNotCertified, mVal, capM)
	}

	guaranteed := math.Inf(1)
	if capM > mVal {
		guaranteed = float64(mVal) / float64(capM-mVal)
	}

	// Candidate ∆ grid: log-spaced over [1/64, 64] plus the
	// guaranteed parameter. Small ∆ keeps tasks on the time schedule
	// (good Cmax), large ∆ pushes them to the memory schedule (good
	// Mmax); the measured-feasible minimum over the grid is the
	// Section 7 "binary search" made robust to non-monotonicity.
	var deltas []float64
	lo, hi := 1.0/64, 64.0
	if !math.IsInf(guaranteed, 1) && guaranteed > hi {
		hi = guaranteed
	}
	ratio := math.Pow(hi/lo, 1/float64(steps))
	for d := lo; d <= hi*(1+1e-12); d *= ratio {
		deltas = append(deltas, d)
	}
	if !math.IsInf(guaranteed, 1) {
		deltas = append(deltas, guaranteed)
	}

	// Each candidate is evaluated for its value only; the first ∆ to
	// reach the least feasible Cmax wins, and only its witness is
	// built.
	res := &ConstrainedSBOResult{GuaranteedDelta: guaranteed}
	scr, pooled := borrowScratch(nil)
	defer releaseScratch(scr, pooled)
	bestDelta, found := 0.0, false
	var bestCmax model.Time
	for _, d := range deltas {
		v, err := prep.Value(d, scr)
		if err != nil {
			return nil, err
		}
		res.Tried++
		if v.Mmax > capM {
			continue
		}
		if !found || v.Cmax < bestCmax {
			bestDelta, bestCmax, found = d, v.Cmax, true
		}
	}
	if found {
		r, err := prep.Run(bestDelta)
		if err != nil {
			return nil, err
		}
		res.SBOResult = r
	} else {
		// π2 itself is feasible (checked above), so the all-π2
		// fallback always lands here at worst: force it. The prepared
		// π2 is shared state, so the result gets its own copy.
		r := &SBOResult{
			Delta:           math.Inf(1),
			Assignment:      append(model.Assignment(nil), prep.pi2...),
			FromMemSchedule: make([]bool, in.N()),
			C:               prep.c,
			M:               mVal,
			Cmax:            in.Cmax(prep.pi2),
			Mmax:            mVal,
		}
		for i := range r.FromMemSchedule {
			r.FromMemSchedule[i] = true
		}
		res.SBOResult = r
	}
	return res, nil
}

// ConstrainedIndependent tries both Section 7 routes on an
// independent-task instance — the SBO parameter search and RLS with an
// explicit cap (SPT order) — and returns the assignment with the
// smaller makespan among the feasible ones.
func ConstrainedIndependent(in *model.Instance, capM model.Mem) (model.Assignment, model.Value, error) {
	prep, err := PrepareConstrainedIndependent(in)
	if err != nil {
		return nil, model.Value{}, err
	}
	return prep.Solve(capM)
}

// ConstrainedPrepared memoizes the budget-independent work of
// ConstrainedIndependent — validation, the memory lower bound, the SBO
// sub-schedules (LPT/LPT) and the RLS SPT order — so a sweep over a
// budget band prepares once and calls Solve per budget. The prepared
// value is immutable and safe for concurrent Solve calls.
type ConstrainedPrepared struct {
	sbo *SBOPrepared
	rls *RLSPrepared
	lb  model.Mem
}

// PrepareConstrainedIndependent validates the instance and runs the
// budget-independent halves of both Section 7 routes over one
// PrepareInstance.
func PrepareConstrainedIndependent(in *model.Instance) (*ConstrainedPrepared, error) {
	ip, err := PrepareInstance(in)
	if err != nil {
		return nil, err
	}
	rls, err := ip.RLS(TieSPT)
	if err != nil {
		return nil, err
	}
	return &ConstrainedPrepared{sbo: ip.SBO(makespan.LPT{}, makespan.LPT{}), rls: rls, lb: rls.lb}, nil
}

// LB returns the memoized Graham memory lower bound.
func (prep *ConstrainedPrepared) LB() model.Mem { return prep.lb }

// Solve runs both Section 7 routes under the budget against the
// prepared state and returns the assignment with the smaller makespan
// among the feasible ones — exactly what ConstrainedIndependent
// returns for the same instance and budget.
func (prep *ConstrainedPrepared) Solve(capM model.Mem) (model.Assignment, model.Value, error) {
	if capM < prep.lb {
		return nil, model.Value{}, fmt.Errorf("%w (LB=%d, budget=%d)", ErrInfeasible, prep.lb, capM)
	}

	var bestA model.Assignment
	var bestV model.Value

	if sbo, err := prep.sbo.Constrained(capM, 32); err == nil {
		bestA = sbo.Assignment
		bestV = model.Value{Cmax: sbo.Cmax, Mmax: sbo.Mmax}
	}
	if rls, err := prep.rls.RunWithCap(capM, TieSPT); err == nil && rls.Mmax <= capM {
		if bestA == nil || rls.Cmax < bestV.Cmax {
			bestA = rls.Schedule.Assignment()
			bestV = model.Value{Cmax: rls.Cmax, Mmax: rls.Mmax}
		}
	}
	if bestA == nil {
		return nil, model.Value{}, fmt.Errorf("%w (LB=%d, budget=%d)", ErrNotCertified, prep.lb, capM)
	}
	return bestA, bestV, nil
}
