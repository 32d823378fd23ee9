package makespan

// Multifit (Coffman, Garey, Johnson 1978) binary-searches a bin
// capacity C and asks whether first-fit-decreasing packs all sizes into
// m bins of capacity C. The smallest capacity FFD accepts is at most
// 13/11 times the optimal makespan (asymptotic bound; 1.22 proven for
// the classic iteration count).
type Multifit struct {
	// Iterations bounds the binary search; 20 gives capacity
	// resolution far below one time unit for any int64 input while
	// keeping the algorithm strongly polynomial. Zero means 20.
	Iterations int
}

// Name implements Algorithm.
func (Multifit) Name() string { return "Multifit" }

// Ratio implements Algorithm. 13/11 is the tight asymptotic FFD-based
// bound (Yue 1990).
func (Multifit) Ratio(m int) float64 { return 13.0 / 11.0 }

// Assign implements Algorithm.
func (mf Multifit) Assign(sizes []Size, m int) Assignment {
	validate(sizes, m)
	iters := mf.Iterations
	if iters <= 0 {
		iters = 20
	}
	order := DescendingOrder(sizes)
	lo := LowerBound(sizes, m) // no packing below the lower bound
	hi := 2 * lo               // FFD always packs at capacity 2·LB
	if hi == 0 {
		hi = 1
	}
	bestA := ffd(sizes, m, order, hi)
	if bestA == nil {
		// Cannot happen (capacity 2·LB always packs: FFD load per bin
		// stays below LB + max <= 2·LB), but fall back defensively to
		// plain greedy rather than returning a nil assignment.
		return AssignGreedy(sizes, m, order)
	}
	for it := 0; it < iters && lo < hi; it++ {
		mid := lo + (hi-lo)/2
		if a := ffd(sizes, m, order, mid); a != nil {
			bestA = a
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return bestA
}

// ffd packs sizes (visited in the given descending order) into m bins
// of capacity cap using first-fit; it returns nil if some item does not
// fit anywhere.
func ffd(sizes []Size, m int, order []int, cap Size) Assignment {
	a := make(Assignment, len(sizes))
	loads := make([]Size, m)
	for _, i := range order {
		placed := false
		for q := 0; q < m; q++ {
			if loads[q]+sizes[i] <= cap {
				a[i] = q
				loads[q] += sizes[i]
				placed = true
				break
			}
		}
		if !placed {
			return nil
		}
	}
	return a
}
