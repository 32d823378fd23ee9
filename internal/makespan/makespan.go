// Package makespan solves the single-objective problem P||Cmax over an
// abstract vector of integer sizes. Section 2.1 of the paper observes
// that on independent tasks Cmax and Mmax "are strictly equivalent and
// can be exchanged"; SBO∆ (Algorithm 1) exploits exactly that symmetry
// by running the same single-objective algorithm once on the p vector
// and once on the s vector. Everything here is therefore written
// against plain []int64 sizes and returns a processor assignment.
//
// Provided algorithms, with their classical guarantees:
//
//   - Graham list scheduling in input order  (2 − 1/m)  [Graham 1969]
//   - LPT (longest processing time first)    (4/3 − 1/(3m))
//   - Multifit with FFD inner packing        (13/11 asymptotically)
//   - Hochbaum–Shmoys dual-approximation PTAS (1 + ε)
//   - Exact solvers (bitmask DP, branch and bound) for small n
package makespan

import (
	"cmp"
	"fmt"
	"slices"

	"storagesched/internal/model"
)

// Size is the abstract quantity being balanced (either p_i or s_i).
type Size = int64

// Assignment maps task index to processor, as in package model.
type Assignment = model.Assignment

// Loads returns the per-processor total size of assignment a.
func Loads(sizes []Size, m int, a Assignment) []Size {
	loads := make([]Size, m)
	for i, q := range a {
		loads[q] += sizes[i]
	}
	return loads
}

// Cmax returns the maximum processor load of assignment a.
func Cmax(sizes []Size, m int, a Assignment) Size {
	var mx Size
	for _, l := range Loads(sizes, m, a) {
		if l > mx {
			mx = l
		}
	}
	return mx
}

// LowerBound returns max(max_i size_i, ceil(Σ size_i / m)), the Graham
// lower bound on the optimum.
func LowerBound(sizes []Size, m int) Size {
	var mx, sum Size
	for _, x := range sizes {
		if x > mx {
			mx = x
		}
		sum += x
	}
	if avg := (sum + Size(m) - 1) / Size(m); avg > mx {
		return avg
	}
	return mx
}

// Algorithm is a P||Cmax heuristic: it assigns every size to one of m
// processors. Implementations must be deterministic.
type Algorithm interface {
	// Name identifies the algorithm in experiment tables.
	Name() string
	// Ratio returns the proven approximation ratio for m processors
	// (for reporting; +Inf-free: exact solvers return 1).
	Ratio(m int) float64
	// Assign computes the processor assignment.
	Assign(sizes []Size, m int) Assignment
}

// validate panics on malformed inputs; all algorithms share it so
// misuse fails loudly at the boundary rather than corrupting results.
func validate(sizes []Size, m int) {
	if m < 1 {
		panic(fmt.Sprintf("makespan: m = %d, need m >= 1", m))
	}
	for i, x := range sizes {
		if x < 0 {
			panic(fmt.Sprintf("makespan: size[%d] = %d, need >= 0", i, x))
		}
	}
}

// descendingOrder returns task indices sorted by decreasing size,
// breaking ties by index for determinism.
func descendingOrder(sizes []Size) []int {
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(sizes[b], sizes[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// minLoadProc returns the least-loaded processor (lowest index wins
// ties), the core step of Graham's algorithm.
func minLoadProc(loads []Size) int {
	best := 0
	for q := 1; q < len(loads); q++ {
		if loads[q] < loads[best] {
			best = q
		}
	}
	return best
}

// assignGreedy places tasks on the least-loaded processor in the given
// order.
func assignGreedy(sizes []Size, m int, order []int) Assignment {
	a := make(Assignment, len(sizes))
	loads := make([]Size, m)
	for _, i := range order {
		q := minLoadProc(loads)
		a[i] = q
		loads[q] += sizes[i]
	}
	return a
}

// Registry returns every heuristic algorithm in the package, in a
// stable order, for ablation sweeps. Exact solvers are excluded (they
// are exponential-time and exposed separately).
func Registry() []Algorithm {
	return []Algorithm{
		ListScheduling{},
		LPT{},
		LDM{},
		Multifit{Iterations: 20},
		PTAS{Epsilon: 0.25},
	}
}
