package model

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Schedule is a timed schedule: an assignment plus a start time per
// task. It is the (π, σ) pair returned by RLS∆ (Algorithm 2 in the
// paper) and in general by any algorithm for the precedence-constrained
// problem P | p_j, s_j, prec | Cmax, Mmax.
type Schedule struct {
	M     int    `json:"m"`
	Proc  []int  `json:"proc"`  // Proc[i]: processor of task i (the paper's π)
	Start []Time `json:"start"` // Start[i]: start time σ(i)
	P     []Time `json:"p"`     // processing times (copied for self-containment)
	S     []Mem  `json:"s"`     // storage sizes
}

// NewSchedule allocates an empty schedule for n tasks on m processors
// with all tasks unassigned (Proc[i] = -1).
func NewSchedule(m, n int) *Schedule {
	proc := make([]int, n)
	for i := range proc {
		proc[i] = -1
	}
	return &Schedule{
		M:     m,
		Proc:  proc,
		Start: make([]Time, n),
		P:     make([]Time, n),
		S:     make([]Mem, n),
	}
}

// N returns the number of tasks.
func (sc *Schedule) N() int { return len(sc.Proc) }

// Completion returns C_i = σ(i) + p_i of task i.
func (sc *Schedule) Completion(i int) Time { return sc.Start[i] + sc.P[i] }

// Cmax returns max_i C_i, the completion time of the last task.
func (sc *Schedule) Cmax() Time {
	var mx Time
	for i := range sc.Proc {
		if c := sc.Completion(i); c > mx {
			mx = c
		}
	}
	return mx
}

// Mmax returns the maximum cumulative memory occupation over
// processors. Memory is cumulative for the whole run (code storage):
// a task's s_i is charged to its processor for the entire schedule,
// exactly as in the paper.
func (sc *Schedule) Mmax() Mem {
	var mx Mem
	for _, l := range sc.MemLoads() {
		if l > mx {
			mx = l
		}
	}
	return mx
}

// MemLoads returns per-processor cumulative memory.
func (sc *Schedule) MemLoads() []Mem {
	mem := make([]Mem, sc.M)
	for i, q := range sc.Proc {
		if q >= 0 {
			mem[q] += sc.S[i]
		}
	}
	return mem
}

// Loads returns per-processor total processing time (busy time).
func (sc *Schedule) Loads() []Time {
	loads := make([]Time, sc.M)
	for i, q := range sc.Proc {
		if q >= 0 {
			loads[q] += sc.P[i]
		}
	}
	return loads
}

// SumCi returns Σ_i C_i.
func (sc *Schedule) SumCi() Time {
	var total Time
	for i := range sc.Proc {
		total += sc.Completion(i)
	}
	return total
}

// Assignment returns the processor assignment as an Assignment value.
func (sc *Schedule) Assignment() Assignment {
	a := make(Assignment, len(sc.Proc))
	copy(a, sc.Proc)
	return a
}

// Validate checks that the schedule is feasible for the given precedence
// relation (prec[i] lists predecessors of i; pass nil for independent
// tasks):
//
//   - every task is assigned to a processor in [0, m) with Start >= 0,
//   - no two tasks overlap on a processor,
//   - every task starts at or after the completion of each predecessor.
func (sc *Schedule) Validate(prec [][]int) error {
	n := len(sc.Proc)
	if len(sc.Start) != n || len(sc.P) != n || len(sc.S) != n {
		return fmt.Errorf("model: inconsistent schedule slice lengths")
	}
	// A counting sort by processor: next[q] starts as the first slot of
	// q's tasks in order and ends as the first slot past them.
	next := make([]int, sc.M+1)
	for i, q := range sc.Proc {
		if q < 0 || q >= sc.M {
			return fmt.Errorf("model: task %d on processor %d, want [0,%d)", i, q, sc.M)
		}
		if sc.Start[i] < 0 {
			return fmt.Errorf("model: task %d starts at %d < 0", i, sc.Start[i])
		}
		if sc.P[i] <= 0 {
			return fmt.Errorf("model: task %d has p = %d, need p > 0", i, sc.P[i])
		}
		next[q+1]++
	}
	for q := range sc.M {
		next[q+1] += next[q]
	}
	order := make([]int, n)
	for i, q := range sc.Proc {
		order[next[q]] = i
		next[q]++
	}
	// Consecutive tasks of one processor in start order must not
	// overlap.
	lo := 0
	for q, hi := range next[:sc.M] {
		ts := order[lo:hi]
		lo = hi
		slices.SortFunc(ts, func(a, b int) int { return cmp.Compare(sc.Start[a], sc.Start[b]) })
		for k := 1; k < len(ts); k++ {
			prev, cur := ts[k-1], ts[k]
			if sc.Completion(prev) > sc.Start[cur] {
				return fmt.Errorf("model: tasks %d and %d overlap on processor %d ([%d,%d) vs [%d,%d))",
					prev, cur, q,
					sc.Start[prev], sc.Completion(prev),
					sc.Start[cur], sc.Completion(cur))
			}
		}
	}
	if prec != nil {
		for i, preds := range prec {
			for _, j := range preds {
				if sc.Completion(j) > sc.Start[i] {
					return fmt.Errorf("model: task %d starts at %d before predecessor %d completes at %d",
						i, sc.Start[i], j, sc.Completion(j))
				}
			}
		}
	}
	return nil
}

// FromAssignment builds a timed schedule from an independent-task
// assignment by packing each processor's tasks back to back in the
// given order (order is irrelevant to Cmax and Mmax).
func FromAssignment(in *Instance, a Assignment) *Schedule {
	sc := NewSchedule(in.M, in.N())
	clock := make([]Time, in.M)
	for i, t := range in.Tasks {
		q := a[i]
		sc.Proc[i] = q
		sc.Start[i] = clock[q]
		sc.P[i] = t.P
		sc.S[i] = t.S
		clock[q] += t.P
	}
	return sc
}

// FromAssignmentSPT builds a timed schedule from an assignment running
// each processor's tasks in SPT order, which minimises ΣCi for the
// fixed assignment.
func FromAssignmentSPT(in *Instance, a Assignment) *Schedule {
	order := make([]int, in.N())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		ti, tj := in.Tasks[order[x]], in.Tasks[order[y]]
		if ti.P != tj.P {
			return ti.P < tj.P
		}
		return ti.ID < tj.ID
	})
	sc := NewSchedule(in.M, in.N())
	clock := make([]Time, in.M)
	for _, i := range order {
		t := in.Tasks[i]
		q := a[i]
		sc.Proc[i] = q
		sc.Start[i] = clock[q]
		sc.P[i] = t.P
		sc.S[i] = t.S
		clock[q] += t.P
	}
	return sc
}
