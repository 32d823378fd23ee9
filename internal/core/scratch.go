package core

import (
	"sync"

	"storagesched/internal/model"
)

// Scratch holds the reusable non-escaping buffers of the solver loops —
// per-processor loads and memory sizes, the processor order both RLS
// loops keep sorted by load, and the Algorithm 2 ready-list
// bookkeeping — so a warm sweep performs O(1) allocations per (item, δ)
// job instead of O(n). A Scratch is not safe for concurrent use; hold
// one per worker (the sweep engine does) or pass nil to let the solver
// borrow one from an internal sync.Pool.
type Scratch struct {
	load   []model.Time
	mem    []model.Mem
	procs  []int
	preds  []int
	ready  []model.Time
	readyQ []int
}

// NewScratch returns an empty scratch; its buffers grow on first use
// and are reused across runs.
func NewScratch() *Scratch { return &Scratch{} }

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// borrowScratch returns scr as-is, or a pooled scratch (to be handed
// back via releaseScratch) when scr is nil.
func borrowScratch(scr *Scratch) (*Scratch, bool) {
	if scr != nil {
		return scr, false
	}
	return scratchPool.Get().(*Scratch), true
}

func releaseScratch(scr *Scratch, pooled bool) {
	if pooled {
		scratchPool.Put(scr)
	}
}

// loads returns a zeroed Time buffer of length n.
func (scr *Scratch) loads(n int) []model.Time {
	if cap(scr.load) < n {
		scr.load = make([]model.Time, n)
	}
	s := scr.load[:n]
	clear(s)
	return s
}

// mems returns a zeroed Mem buffer of length n.
func (scr *Scratch) mems(n int) []model.Mem {
	if cap(scr.mem) < n {
		scr.mem = make([]model.Mem, n)
	}
	s := scr.mem[:n]
	clear(s)
	return s
}

// procOrder returns the processors 0..m-1 in index order — the
// (load, index) order of m idle processors.
func (scr *Scratch) procOrder(m int) []int {
	if cap(scr.procs) < m {
		scr.procs = make([]int, m)
	}
	s := scr.procs[:m]
	for j := range s {
		s[j] = j
	}
	return s
}

// predsBuf returns an int buffer of length n initialized from src.
func (scr *Scratch) predsBuf(src []int) []int {
	n := len(src)
	if cap(scr.preds) < n {
		scr.preds = make([]int, n)
	}
	s := scr.preds[:n]
	copy(s, src)
	return s
}

// readyBuf returns a zeroed Time buffer of length n, distinct from
// loads so Algorithm 2 can hold both at once.
func (scr *Scratch) readyBuf(n int) []model.Time {
	if cap(scr.ready) < n {
		scr.ready = make([]model.Time, n)
	}
	s := scr.ready[:n]
	clear(s)
	return s
}

// readyList returns an empty int buffer with room for n tasks, the
// Algorithm 2 ready list.
func (scr *Scratch) readyList(n int) []int {
	if cap(scr.readyQ) < n {
		scr.readyQ = make([]int, 0, n)
	}
	return scr.readyQ[:0]
}

// maxTimeOf returns the maximum of a non-empty Time slice, 0 for empty.
func maxTimeOf(s []model.Time) model.Time {
	var mx model.Time
	for _, v := range s {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// maxMemOf returns the maximum of a non-empty Mem slice, 0 for empty.
func maxMemOf(s []model.Mem) model.Mem {
	var mx model.Mem
	for _, v := range s {
		if v > mx {
			mx = v
		}
	}
	return mx
}
