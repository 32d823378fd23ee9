package core

import (
	"storagesched/internal/bounds"
	"storagesched/internal/makespan"
	"storagesched/internal/model"
)

// InstancePrep is the sort a δ-sweep of one independent-task instance
// shares between its consumers. The instance is validated once, its p
// vector copied out once and sorted at most once into byP, the
// descending-p order of makespan.DescendingOrder:
//
//   - SBO's LPT time schedule π1 is list scheduling over byP;
//   - the RLS tie orders are byP itself (TieLPT, and TieBottomLevel,
//     since an independent task's bottom level is its p) and its runs
//     of equal p reversed (TieSPT);
//   - the ΣCi bound walks byP in reverse.
//
// byP is sorted by the first consumer that needs it, so an SBO with
// other sub-algorithms than LPT does not pay for it. No other consumer
// reads s, so SBO's memory schedule π2 is algM.Assign on a copy of it.
// The engine prepares every instance item through PrepareInstance, and
// PrepareSBO, PrepareRLSIndependent and PrepareConstrainedIndependent
// are PrepareInstance plus the matching method. An InstancePrep is not
// safe for concurrent use; the prepared values its methods return are,
// and they share byP.
type InstancePrep struct {
	in  *model.Instance
	p   []model.Time
	byP []int
}

// PrepareInstance validates the instance and copies out its p vector.
// The result is a value: a caller that keeps only what its methods
// return holds it on the stack.
func PrepareInstance(in *model.Instance) (InstancePrep, error) {
	if err := in.Validate(); err != nil {
		return InstancePrep{}, err
	}
	return InstancePrep{in: in, p: in.P()}, nil
}

// descP returns byP, sorting p on the first call.
func (ip *InstancePrep) descP() []int {
	if ip.byP == nil {
		ip.byP = makespan.DescendingOrder(ip.p)
	}
	return ip.byP
}

// SBO runs Algorithm 1's two sub-algorithms: algC on p for π1, algM on
// s for π2. An LPT algC list-schedules over byP, which RLS and the
// bounds share; any other algorithm is called through Assign on its own
// copy of the sizes, so it may reorder them freely.
func (ip *InstancePrep) SBO(algC, algM makespan.Algorithm) *SBOPrepared {
	in := ip.in
	var pi1 model.Assignment
	if isLPT(algC) {
		pi1 = makespan.AssignGreedy(ip.p, in.M, ip.descP())
	} else {
		pi1 = algC.Assign(in.P(), in.M)
	}
	pi2 := algM.Assign(in.S(), in.M)
	return &SBOPrepared{
		in:  in,
		pi1: pi1,
		pi2: pi2,
		c:   in.Cmax(pi1),
		m:   in.Mmax(pi2),
	}
}

// isLPT reports whether alg is makespan.LPT, whose Assign is list
// scheduling over the descending order a caller may already hold.
func isLPT(alg makespan.Algorithm) bool {
	_, ok := alg.(makespan.LPT)
	return ok
}

// RLS precomputes the scheduling orders of the given tie-breaks (all
// four when none are given) from byP; TieByID alone needs no sort.
func (ip *InstancePrep) RLS(ties ...TieBreak) (*RLSPrepared, error) {
	if len(ties) == 0 {
		ties = []TieBreak{TieByID, TieSPT, TieLPT, TieBottomLevel}
	}
	o := orderer{p: ip.p, lpt: ip.byP}
	orders := make(map[TieBreak][]int, len(ties))
	for _, tie := range ties {
		if _, ok := orders[tie]; ok {
			continue
		}
		order, err := o.order(tie)
		if err != nil {
			return nil, err
		}
		orders[tie] = order
	}
	ip.byP = o.lpt
	return &RLSPrepared{in: ip.in, lb: instanceMemLB(ip.in), orders: orders}, nil
}

// Bounds returns the instance's lower-bound record; it equals
// bounds.ForInstance, with the ΣCi bound read off byP.
func (ip *InstancePrep) Bounds() bounds.Record {
	return bounds.ForOrder(ip.in, ip.p, ip.descP())
}
