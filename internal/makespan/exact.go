package makespan

import (
	"fmt"
	"math/bits"
)

// ExactDP computes the optimal makespan by binary-searching the
// capacity and deciding feasibility with the classic bitmask
// bin-packing dynamic program (state: subset of items; value: fewest
// bins, then smallest load in the open bin). Exponential in n — use
// for n ≤ ~20. The paper needs exact optima only to *measure* ratios
// (C*max, M*max in Section 4 instances and Corollary 1 checks), never
// inside an algorithm.
type ExactDP struct{}

// Name implements Algorithm.
func (ExactDP) Name() string { return "ExactDP" }

// Ratio implements Algorithm: exact.
func (ExactDP) Ratio(m int) float64 { return 1 }

// Assign implements Algorithm.
func (e ExactDP) Assign(sizes []Size, m int) Assignment {
	_, a := e.Solve(sizes, m)
	return a
}

// Solve returns the optimal makespan and one optimal assignment.
func (ExactDP) Solve(sizes []Size, m int) (Size, Assignment) {
	validate(sizes, m)
	n := len(sizes)
	if n > 24 {
		panic(fmt.Sprintf("makespan: ExactDP limited to n <= 24, got %d", n))
	}
	if n == 0 {
		return 0, Assignment{}
	}
	lo := LowerBound(sizes, m)
	hi := lo * 2
	if hi < lo {
		hi = lo
	}
	// The Graham bound guarantees a schedule of value < 2·lo exists,
	// so feasible(hi) holds; keep the invariant explicit anyway.
	for !feasibleDP(sizes, m, hi) {
		hi *= 2
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if feasibleDP(sizes, m, mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	a := reconstructDP(sizes, m, hi)
	return hi, a
}

// feasibleDP reports whether sizes pack into m bins of capacity cap.
func feasibleDP(sizes []Size, m int, cap Size) bool {
	bins, _ := packDP(sizes, cap)
	return bins != nil && int(bins[len(bins)-1]) <= m
}

// packDP runs the subset DP. It returns per-mask minimal bin counts
// and last-bin loads; nil if some single item exceeds cap.
func packDP(sizes []Size, cap Size) (bins []int32, last []Size) {
	n := len(sizes)
	for _, x := range sizes {
		if x > cap {
			return nil, nil
		}
	}
	total := 1 << n
	bins = make([]int32, total)
	last = make([]Size, total)
	for mask := 1; mask < total; mask++ {
		bins[mask] = int32(1 << 30)
		last[mask] = 0
	}
	bins[0] = 0
	last[0] = cap // full: the first item always opens a bin
	for mask := 0; mask < total; mask++ {
		if bins[mask] == int32(1<<30) {
			continue
		}
		free := ^mask & (total - 1)
		for f := free; f != 0; f &= f - 1 {
			i := bits.TrailingZeros(uint(f))
			next := mask | 1<<i
			var nb int32
			var nl Size
			if last[mask]+sizes[i] <= cap {
				nb, nl = bins[mask], last[mask]+sizes[i]
			} else {
				nb, nl = bins[mask]+1, sizes[i]
			}
			if nb < bins[next] || (nb == bins[next] && nl < last[next]) {
				bins[next], last[next] = nb, nl
			}
		}
	}
	return bins, last
}

// reconstructDP rebuilds an assignment achieving makespan ≤ cap by
// re-running the DP and walking predecessors.
func reconstructDP(sizes []Size, m int, cap Size) Assignment {
	n := len(sizes)
	bins, last := packDP(sizes, cap)
	if bins == nil {
		return nil
	}
	a := make(Assignment, n)
	mask := (1 << n) - 1
	for mask != 0 {
		found := false
		for i := 0; i < n && !found; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			prev := mask &^ (1 << i)
			if bins[prev] == int32(1<<30) {
				continue
			}
			var nb int32
			var nl Size
			if last[prev]+sizes[i] <= cap {
				nb, nl = bins[prev], last[prev]+sizes[i]
			} else {
				nb, nl = bins[prev]+1, sizes[i]
			}
			if nb == bins[mask] && nl == last[mask] {
				a[i] = int(bins[mask]) - 1
				mask = prev
				found = true
			}
		}
		if !found {
			// Cannot happen if the DP tables are consistent.
			panic("makespan: DP reconstruction failed")
		}
	}
	return a
}

// BranchAndBound is a depth-first exact solver with the standard
// prunings (descending item order, identical-load symmetry breaking,
// work-average and current-max bounds). Practical to n ≈ 30 and often
// far faster than ExactDP, but worst-case exponential.
type BranchAndBound struct {
	// MaxNodes caps the search size; 0 means unlimited. When the cap
	// is hit the incumbent (always feasible, typically LPT-improved)
	// is returned, so the result degrades gracefully to a heuristic.
	MaxNodes int64
}

// Name implements Algorithm.
func (BranchAndBound) Name() string { return "BnB" }

// Ratio implements Algorithm: exact when the node budget suffices.
func (BranchAndBound) Ratio(m int) float64 { return 1 }

// Assign implements Algorithm.
func (b BranchAndBound) Assign(sizes []Size, m int) Assignment {
	_, a := b.Solve(sizes, m)
	return a
}

// Solve returns the optimal makespan and an optimal assignment (or the
// best found within MaxNodes).
func (b BranchAndBound) Solve(sizes []Size, m int) (Size, Assignment) {
	validate(sizes, m)
	n := len(sizes)
	if n == 0 {
		return 0, Assignment{}
	}
	order := DescendingOrder(sizes)
	lb := LowerBound(sizes, m)

	// Incumbent: LPT.
	best := LPT{}.Assign(sizes, m)
	bestVal := Cmax(sizes, m, best)
	if bestVal == lb {
		return bestVal, best
	}

	suffix := make([]Size, n+1) // suffix[k] = Σ sizes of order[k:]
	for k := n - 1; k >= 0; k-- {
		suffix[k] = suffix[k+1] + sizes[order[k]]
	}

	cur := make(Assignment, n)
	loads := make([]Size, m)
	var nodes int64

	var rec func(k int, curMax Size)
	rec = func(k int, curMax Size) {
		if bestVal == lb {
			return
		}
		if b.MaxNodes > 0 && nodes > b.MaxNodes {
			return
		}
		nodes++
		if k == n {
			if curMax < bestVal {
				bestVal = curMax
				copy(best, cur)
			}
			return
		}
		// Bound: even spreading the remaining work cannot beat this.
		var totalLoad Size
		for _, l := range loads {
			totalLoad += l
		}
		avg := (totalLoad + suffix[k] + Size(m) - 1) / Size(m)
		bound := curMax
		if avg > bound {
			bound = avg
		}
		if bound >= bestVal {
			return
		}
		i := order[k]
		seen := make(map[Size]bool, m)
		for q := 0; q < m; q++ {
			if seen[loads[q]] {
				continue // symmetric to an already-tried machine
			}
			seen[loads[q]] = true
			if loads[q]+sizes[i] >= bestVal {
				continue
			}
			cur[i] = q
			loads[q] += sizes[i]
			newMax := curMax
			if loads[q] > newMax {
				newMax = loads[q]
			}
			rec(k+1, newMax)
			loads[q] -= sizes[i]
		}
	}
	rec(0, 0)
	return bestVal, best
}
