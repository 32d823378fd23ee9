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
	"math/bits"
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

// DescendingOrder returns the indices of keys sorted by decreasing
// key, lowest index first among equal keys. That order is total, so it
// is the one permutation a stable sort of the identity by key gives.
//
// When every key is ≥ 0 and their spread fits in 31 bits (and the
// index in 32), each entry of the result is first packed as
// (max−key)<<32 | index and the packed ints are sorted ascending in
// place, which needs no buffer beyond the result and no comparator
// closure; the mask then leaves the index. Other keys (a negative key,
// or a spread of 2^31 or more, as huge p or long bottom levels can
// have) and 32-bit ints take the (key desc, index asc) comparator.
// Both paths give the same permutation.
func DescendingOrder(keys []Size) []int {
	order := make([]int, len(keys))
	if top, ok := packTop(keys); ok {
		for i, k := range keys {
			order[i] = int(uint64(top-k)<<32 | uint64(i))
		}
		slices.Sort(order)
		for r, x := range order {
			order[r] = int(uint64(x) & (1<<32 - 1))
		}
		return order
	}
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(keys[b], keys[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// packTop returns the largest key and whether DescendingOrder may pack
// keys beside their index in one int: a 64-bit int, at most 2^32
// indices, and keys in [lo, lo+2^31) with lo ≥ 0, so that
// (max−key)<<32 | index stays non-negative.
func packTop(keys []Size) (Size, bool) {
	if bits.UintSize != 64 || len(keys) == 0 || uint64(len(keys)) > 1<<32 {
		return 0, false
	}
	lo, hi := keys[0], keys[0]
	for _, k := range keys[1:] {
		lo, hi = min(lo, k), max(hi, k)
	}
	return hi, lo >= 0 && hi-lo < 1<<31
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

// AssignGreedy places tasks on the least-loaded processor in the given
// order: Graham's list scheduling over order. Over
// DescendingOrder(sizes) it is LPT, which is how a caller that already
// holds that order gets LPT without sorting again.
func AssignGreedy(sizes []Size, m int, order []int) Assignment {
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
