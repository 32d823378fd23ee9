// Package core implements the two algorithm families of Saule, Dutot
// and Mounié, "Scheduling with Storage Constraints" (IPDPS 2008):
//
//   - SBO∆ — the Symmetric Bi-Objective algorithm for independent tasks
//     (Algorithm 1, Section 3), a ((1+∆)ρ1, (1+1/∆)ρ2)-approximation of
//     (Cmax, Mmax) built from any two single-objective sub-algorithms;
//   - RLS∆ — Restricted List Scheduling for precedence-constrained
//     tasks (Algorithm 2, Section 5), a
//     (2 + 1/(∆−2) − (∆−1)/(m(∆−2)), ∆)-approximation for ∆ > 2, and
//     its tri-objective SPT variant (Corollary 4);
//   - the Section 7 constrained solvers that recover the original
//     "minimize Cmax subject to Mmax ≤ M" problem from the bi-objective
//     machinery.
package core

import (
	"fmt"

	"storagesched/internal/exact"
	"storagesched/internal/makespan"
	"storagesched/internal/model"
)

// SBOResult is the outcome of one SBO∆ run, retaining everything the
// analysis of Properties 1 and 2 refers to.
type SBOResult struct {
	Delta float64

	// Assignment is the combined schedule π∆.
	Assignment model.Assignment

	// FromMemSchedule[i] is true when task i was taken from π2, the
	// memory-optimized schedule (the set S2 in the proof of
	// Property 1), false when taken from π1 (the set S1).
	FromMemSchedule []bool

	// C is Cmax(π1), the guaranteed makespan of the time
	// sub-schedule; M is Mmax(π2), the guaranteed memory of the
	// memory sub-schedule. The proven bounds are relative to these:
	// Cmax(π∆) ≤ (1+∆)·C and Mmax(π∆) ≤ (1+1/∆)·M.
	C model.Time
	M model.Mem

	// Cmax and Mmax are the achieved objective values of π∆.
	Cmax model.Time
	Mmax model.Mem
}

// CmaxBound returns the Property 1 guarantee (1+∆)·C as a float.
func (r *SBOResult) CmaxBound() float64 { return (1 + r.Delta) * float64(r.C) }

// MmaxBound returns the Property 2 guarantee (1+1/∆)·M as a float.
func (r *SBOResult) MmaxBound() float64 { return (1 + 1/r.Delta) * float64(r.M) }

// SBO runs Algorithm 1 on an independent-task instance. algC is the
// ρ1-approximation used for the makespan schedule π1, algM the
// ρ2-approximation used (on the s vector) for the memory schedule π2.
// Delta must be > 0.
//
// The threshold test "p_i/C < ∆·s_i/M" is evaluated exactly with
// rational arithmetic so that huge integer instances (the ε-scaled
// hardness instances use values up to 2^40) never suffer float
// rounding.
func SBO(in *model.Instance, delta float64, algC, algM makespan.Algorithm) (*SBOResult, error) {
	prep, err := PrepareSBO(in, algC, algM)
	if err != nil {
		return nil, err
	}
	return prep.Run(delta)
}

// SBOPrepared holds the δ-independent half of Algorithm 1: the two
// single-objective sub-schedules π1 and π2 and their objective values C
// and M. Only the merge (the threshold test per task) depends on ∆, so
// a δ-sweep prepares once and runs the merge per grid point — the
// sub-algorithm cost (the dominant cost with LPT, and overwhelmingly so
// with the PTAS) is paid once per instance instead of once per run.
// The prepared value is immutable after PrepareSBO and safe for
// concurrent Run and Value calls.
type SBOPrepared struct {
	in       *model.Instance
	pi1, pi2 model.Assignment
	c        model.Time
	m        model.Mem
}

// PrepareSBO validates the instance and runs the two sub-algorithms;
// it is PrepareInstance(in) followed by InstancePrep.SBO.
func PrepareSBO(in *model.Instance, algC, algM makespan.Algorithm) (*SBOPrepared, error) {
	ip, err := PrepareInstance(in)
	if err != nil {
		return nil, err
	}
	return ip.SBO(algC, algM), nil
}

// C returns Cmax(π1), the makespan of the time sub-schedule.
func (prep *SBOPrepared) C() model.Time { return prep.c }

// M returns Mmax(π2), the memory of the memory sub-schedule.
func (prep *SBOPrepared) M() model.Mem { return prep.m }

// Run performs the ∆-dependent merge of Algorithm 1 and returns the
// combined schedule π∆ with its analysis record.
func (prep *SBOPrepared) Run(delta float64) (*SBOResult, error) {
	co, err := sboCoeff(delta)
	if err != nil {
		return nil, err
	}
	n := prep.in.N()
	res := &SBOResult{
		Delta:           delta,
		Assignment:      make(model.Assignment, n),
		FromMemSchedule: make([]bool, n),
		C:               prep.c,
		M:               prep.m,
	}
	v := prep.merge(co, res.Assignment, res.FromMemSchedule, nil)
	res.Cmax, res.Mmax = v.Cmax, v.Mmax
	return res, nil
}

// Value is Run's (Cmax, Mmax) without the witness. scr is the caller's
// scratch (nil borrows from the internal pool); with a warm one, Value
// allocates nothing. The sweep engine's workers call it, one Scratch
// each.
func (prep *SBOPrepared) Value(delta float64, scr *Scratch) (model.Value, error) {
	co, err := sboCoeff(delta)
	if err != nil {
		return model.Value{}, err
	}
	scr, pooled := borrowScratch(scr)
	defer releaseScratch(scr, pooled)
	a, fromMem := scr.sboOut(prep.in.N())
	return prep.merge(co, a, fromMem, scr), nil
}

// sboCoeff validates the SBO parameter and returns ∆'s exact
// mantissa/exponent form; every finite float64 is a rational, and
// non-finite ∆ (NaN passes the sign check) has no rational form at all.
func sboCoeff(delta float64) (exact.Coeff, error) {
	if delta <= 0 {
		return exact.Coeff{}, fmt.Errorf("core: SBO delta = %g, need delta > 0", delta)
	}
	co, err := exact.NewCoeff(delta)
	if err != nil {
		return exact.Coeff{}, fmt.Errorf("core: SBO delta = %g is not finite", delta)
	}
	return co, nil
}

// merge is the Algorithm 1 loop: it writes π∆ into a and the S1/S2
// split into fromMem, and returns (Cmax, Mmax) of π∆, accumulated in
// the same pass against scr's per-processor buffers (nil borrows).
func (prep *SBOPrepared) merge(co exact.Coeff, a model.Assignment, fromMem []bool, scr *Scratch) model.Value {
	scr, pooled := borrowScratch(scr)
	defer releaseScratch(scr, pooled)
	loads := scr.loads(prep.in.M)
	mems := scr.mems(prep.in.M)
	for i, t := range prep.in.Tasks {
		// p_i/C < ∆·s_i/M  ⇔  p_i·M < ∆·s_i·C (C, M > 0), evaluated on
		// the exact integer kernel so huge instances (ε-scaled hardness
		// values reach 2^40) never suffer float rounding. M = 0 means a
		// perfect memory schedule exists (all s_i = 0): memory needs no
		// help, so every task stays on the time schedule.
		useMem := prep.m != 0 && co.MulCmp(t.P, prep.m, t.S, prep.c) < 0
		j := prep.pi1[i]
		if useMem {
			j = prep.pi2[i]
		}
		a[i], fromMem[i] = j, useMem
		loads[j] += t.P
		mems[j] += t.S
	}
	return model.Value{Cmax: maxTimeOf(loads), Mmax: maxMemOf(mems)}
}

// SBOWithLS runs SBO∆ with Graham list scheduling on both objectives —
// the cheapest configuration, ratio ((1+∆)(2−1/m), (1+1/∆)(2−1/m)).
func SBOWithLS(in *model.Instance, delta float64) (*SBOResult, error) {
	return SBO(in, delta, makespan.ListScheduling{}, makespan.ListScheduling{})
}

// SBOWithLPT runs SBO∆ with LPT on both objectives, ratio
// ((1+∆)(4/3−1/3m), (1+1/∆)(4/3−1/3m)).
func SBOWithLPT(in *model.Instance, delta float64) (*SBOResult, error) {
	return SBO(in, delta, makespan.LPT{}, makespan.LPT{})
}

// SBOWithPTAS runs SBO∆ with the Hochbaum–Shmoys PTAS on both
// objectives — the Corollary 1 configuration with ratio
// ((1+∆)(1+ε), (1+1/∆)(1+ε)) ≤ (1+∆+ε', 1+1/∆+ε'). The PTAS dynamic
// program is exponential in 1/ε; see makespan.PTAS.
func SBOWithPTAS(in *model.Instance, delta, eps float64) (*SBOResult, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("core: SBO PTAS eps = %g, need 0 < eps < 1", eps)
	}
	alg := makespan.PTAS{Epsilon: eps}
	return SBO(in, delta, alg, alg)
}

// SBORatio returns the proven approximation pair of SBO∆ given the
// sub-algorithm ratios: ((1+∆)·ρ1, (1+1/∆)·ρ2).
func SBORatio(delta, rho1, rho2 float64) (cmaxRatio, mmaxRatio float64) {
	return (1 + delta) * rho1, (1 + 1/delta) * rho2
}
