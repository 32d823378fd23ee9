package makespan

// ListScheduling is Graham's list scheduling in input order: each task,
// in turn, goes to the currently least-loaded processor. Guarantee:
// 2 − 1/m. This is the algorithm the paper "recalls in Section 5" as
// the baseline ρ1 = ρ2 = 2 − 1/m choice for SBO∆.
type ListScheduling struct{}

// Name implements Algorithm.
func (ListScheduling) Name() string { return "LS" }

// Ratio implements Algorithm: 2 − 1/m.
func (ListScheduling) Ratio(m int) float64 { return 2 - 1/float64(m) }

// Assign implements Algorithm.
func (ListScheduling) Assign(sizes []Size, m int) Assignment {
	validate(sizes, m)
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	return AssignGreedy(sizes, m, order)
}

// LPT is Graham's longest-processing-time rule: list scheduling after
// sorting sizes in decreasing order. Guarantee: 4/3 − 1/(3m).
type LPT struct{}

// Name implements Algorithm.
func (LPT) Name() string { return "LPT" }

// Ratio implements Algorithm: 4/3 − 1/(3m).
func (LPT) Ratio(m int) float64 { return 4.0/3.0 - 1/(3*float64(m)) }

// Assign implements Algorithm.
func (LPT) Assign(sizes []Size, m int) Assignment {
	validate(sizes, m)
	return AssignGreedy(sizes, m, DescendingOrder(sizes))
}
