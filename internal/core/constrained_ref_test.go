package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"storagesched/internal/bounds"
	"storagesched/internal/makespan"
	"storagesched/internal/model"
)

// constrainedSBORef is the ∆ search of SBOPrepared.Constrained as it
// was before candidates were evaluated by value: a full Run, witness
// and all, per candidate ∆, keeping the first one to reach the least
// feasible Cmax. It is the oracle for the value-first search.
func constrainedSBORef(prep *SBOPrepared, capM model.Mem, steps int) (*ConstrainedSBOResult, error) {
	if steps < 1 {
		steps = 32
	}
	in := prep.in
	lb := instanceMemLB(in)
	if capM < lb {
		return nil, fmt.Errorf("%w (LB=%d, budget=%d)", ErrInfeasible, lb, capM)
	}
	mVal := prep.m
	if mVal > capM {
		return nil, fmt.Errorf("%w (memory sub-schedule reaches Mmax=%d > budget=%d)", ErrNotCertified, mVal, capM)
	}
	guaranteed := math.Inf(1)
	if capM > mVal {
		guaranteed = float64(mVal) / float64(capM-mVal)
	}
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
	res := &ConstrainedSBOResult{GuaranteedDelta: guaranteed}
	for _, d := range deltas {
		r, err := prep.Run(d)
		if err != nil {
			return nil, err
		}
		res.Tried++
		if r.Mmax > capM {
			continue
		}
		if res.SBOResult == nil || r.Cmax < res.SBOResult.Cmax {
			res.SBOResult = r
		}
	}
	if res.SBOResult == nil {
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

// TestSBOConstrainedMatchesWitnessSearch checks that the value-first
// search returns exactly what the witness-per-candidate search did —
// the same chosen ∆, assignment, S1/S2 split, values, trial count and
// errors — over budgets on both sides of LB and 2·LB. Small sizes make
// Cmax ties between candidates common, so the first-wins rule is
// exercised.
func TestSBOConstrainedMatchesWitnessSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 40; trial++ {
		in := randInstance(rng, 30, 6, 12)
		prep, err := PrepareSBO(in, makespan.LPT{}, makespan.LPT{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		lb := bounds.MemLB(in.S(), in.M)
		for budget := maxMem(0, lb-1); budget <= 3*lb+1; budget += maxMem(1, lb/6) {
			for _, steps := range []int{0, 3, 16} {
				got, gotErr := prep.Constrained(budget, steps)
				want, wantErr := constrainedSBORef(prep, budget, steps)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("trial %d budget %d steps %d: err %v, want %v", trial, budget, steps, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d budget %d steps %d: got %+v, want %+v", trial, budget, steps, got.SBOResult, want.SBOResult)
				}
			}
		}
	}
}
