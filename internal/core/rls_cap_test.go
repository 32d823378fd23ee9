package core

// The explicit-cap RLS entries: one fresh, unprepared Algorithm 2 run
// under a given per-processor memory budget. No production path needs
// them — the prepared solvers' RunWithCap and Constrained cover every
// caller — so they live here as the capped-run oracles of the value
// memo tests and the prepared-path parity tests.

import (
	"storagesched/internal/bounds"
	"storagesched/internal/dag"
	"storagesched/internal/model"
)

// cappedRLS runs the DAG loop under cap instead of ∆·LB. It fails with
// ErrCapTooSmall when some ready task fits on no processor, which can
// only happen for caps below 2·LB.
func cappedRLS(g *dag.Graph, cap model.Mem, tie TieBreak) (*RLSResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	res, err := rlsWithCap(g, cap, tie)
	if err != nil {
		return nil, err
	}
	res.LB = bounds.MemLB(g.S, g.M)
	if res.LB > 0 {
		res.Delta = float64(cap) / float64(res.LB)
	}
	return res, nil
}

// cappedRLSIndependent is the explicit-cap form of RLSIndependent.
func cappedRLSIndependent(in *model.Instance, cap model.Mem, tie TieBreak) (*RLSResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	res, err := rlsIndependentWithCap(in, cap, tie)
	if err != nil {
		return nil, err
	}
	res.LB = instanceMemLB(in)
	if res.LB > 0 {
		res.Delta = float64(cap) / float64(res.LB)
	}
	return res, nil
}
