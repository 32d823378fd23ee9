package core

// Test-only references: the direct form of the two RLS loops, in
// which each step scans all n tasks and, for every ready task, the m
// processors twice. They allocate their own buffers and share nothing
// with the production loops but ErrCapTooSmall, so the differential
// and fuzz tests can compare the two field for field.

import (
	"math"

	"storagesched/internal/dag"
	"storagesched/internal/model"
)

// refRLSRanked is the reference for rlsRanked.
func refRLSRanked(g *dag.Graph, rank, npreds []int, cap model.Mem) (*RLSResult, error) {
	n := g.N()
	m := g.M

	sc := model.NewSchedule(m, n)
	copy(sc.P, g.P)
	copy(sc.S, g.S)

	load := make([]model.Time, m)
	memsize := make([]model.Mem, m)
	marked := make([]bool, m)
	done := make([]bool, n)
	pendingPreds := append([]int(nil), npreds...)
	readyTime := make([]model.Time, n) // max over preds of completion
	var sumCi model.Time

	const inf = model.Time(math.MaxInt64)
	for scheduled := 0; scheduled < n; scheduled++ {
		bestTask, bestProc := -1, -1
		bestStart := inf
		for i := 0; i < n; i++ {
			if done[i] || pendingPreds[i] != 0 {
				continue
			}
			// Least-loaded processor that respects the memory cap.
			proc := -1
			for j := 0; j < m; j++ {
				if memsize[j]+g.S[i] > cap {
					continue
				}
				if proc == -1 || load[j] < load[proc] {
					proc = j
				}
			}
			if proc == -1 {
				// No processor can take this task. Another ready
				// task might still fit; defer i.
				continue
			}
			// Analysis bookkeeping (Lemma 4): every processor with a
			// smaller load than the chosen one was skipped because
			// of memory.
			for j := 0; j < m; j++ {
				if load[j] < load[proc] {
					marked[j] = true
				}
			}
			start := readyTime[i]
			if load[proc] > start {
				start = load[proc]
			}
			if start < bestStart || (start == bestStart && (bestTask == -1 || rank[i] < rank[bestTask])) {
				bestTask, bestProc, bestStart = i, proc, start
			}
		}
		if bestTask == -1 {
			return nil, ErrCapTooSmall{Task: refFirstUnscheduled(done), Cap: cap}
		}
		i := bestTask
		sc.Proc[i] = bestProc
		sc.Start[i] = bestStart
		load[bestProc] = bestStart + g.P[i]
		memsize[bestProc] += g.S[i]
		sumCi += bestStart + g.P[i]
		done[i] = true
		for _, w := range g.Succs(i) {
			pendingPreds[w]--
			if c := bestStart + g.P[i]; c > readyTime[w] {
				readyTime[w] = c
			}
		}
	}

	// The objectives fall out of the loop's own bookkeeping: the final
	// per-processor loads and memory sizes are exactly what
	// sc.Cmax()/sc.Mmax() would recompute, and ΣCi accumulated per task.
	res := &RLSResult{
		Schedule: sc,
		Cap:      cap,
		Marked:   marked,
		Cmax:     maxTimeOf(load),
		Mmax:     maxMemOf(memsize),
		SumCi:    sumCi,
	}
	return res, nil
}

func refFirstUnscheduled(done []bool) int {
	for i, d := range done {
		if !d {
			return i
		}
	}
	return -1
}

// refRLSIndependentOrdered is the reference for rlsIndependentOrdered.
func refRLSIndependentOrdered(in *model.Instance, order []int, cap model.Mem) (*RLSResult, error) {
	n, m := in.N(), in.M
	sc := model.NewSchedule(m, n)
	for i, t := range in.Tasks {
		sc.P[i] = t.P
		sc.S[i] = t.S
	}
	load := make([]model.Time, m)
	memsize := make([]model.Mem, m)
	marked := make([]bool, m)
	var sumCi model.Time
	for _, i := range order {
		t := in.Tasks[i]
		proc := -1
		for j := 0; j < m; j++ {
			if memsize[j]+t.S > cap {
				continue
			}
			if proc == -1 || load[j] < load[proc] {
				proc = j
			}
		}
		if proc == -1 {
			return nil, ErrCapTooSmall{Task: i, Cap: cap}
		}
		for j := 0; j < m; j++ {
			if load[j] < load[proc] {
				marked[j] = true
			}
		}
		sc.Proc[i] = proc
		sc.Start[i] = load[proc]
		load[proc] += t.P
		memsize[proc] += t.S
		sumCi += load[proc]
	}
	return &RLSResult{
		Schedule: sc,
		Cap:      cap,
		Marked:   marked,
		Cmax:     maxTimeOf(load),
		Mmax:     maxMemOf(memsize),
		SumCi:    sumCi,
	}, nil
}
