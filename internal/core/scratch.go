package core

import (
	"sync"

	"storagesched/internal/model"
)

// Scratch holds the reusable buffers of the solver loops — per-processor
// loads and memory sizes, the processor order both RLS loops keep
// sorted by load, the Algorithm 2 ready-list bookkeeping, and the
// witness a value-only run writes and discards (π, σ and the Lemma 4
// marks of an RLS run; the assignment and the S1/S2 split of an SBO
// merge) — so a warm value run (SBOPrepared.Value, RLSPrepared.Value,
// RLSGraphPrepared.Value) allocates nothing. A Scratch is not safe for
// concurrent use; hold one per worker (the sweep engine does) or pass
// nil to let the solver borrow one from an internal sync.Pool.
type Scratch struct {
	load   []model.Time
	mem    []model.Mem
	procs  []int
	preds  []int
	ready  []model.Time
	readyQ []int

	proc    []int
	start   []model.Time
	marked  []bool
	assign  model.Assignment
	fromMem []bool
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

// grow returns (*b)[:n], reallocating *b when it is too short. The
// contents are whatever the last run left.
func grow[S ~[]T, T any](b *S, n int) S {
	if cap(*b) < n {
		*b = make(S, n)
	}
	return (*b)[:n]
}

// loads returns a zeroed Time buffer of length n.
func (scr *Scratch) loads(n int) []model.Time {
	s := grow(&scr.load, n)
	clear(s)
	return s
}

// mems returns a zeroed Mem buffer of length n.
func (scr *Scratch) mems(n int) []model.Mem {
	s := grow(&scr.mem, n)
	clear(s)
	return s
}

// procOrder returns the processors 0..m-1 in index order — the
// (load, index) order of m idle processors.
func (scr *Scratch) procOrder(m int) []int {
	s := grow(&scr.procs, m)
	for j := range s {
		s[j] = j
	}
	return s
}

// predsBuf returns an int buffer of length n initialized from src.
func (scr *Scratch) predsBuf(src []int) []int {
	s := grow(&scr.preds, len(src))
	copy(s, src)
	return s
}

// readyBuf returns a zeroed Time buffer of length n, distinct from
// loads so Algorithm 2 can hold both at once.
func (scr *Scratch) readyBuf(n int) []model.Time {
	s := grow(&scr.ready, n)
	clear(s)
	return s
}

// readyList returns an empty int buffer with room for n tasks, the
// Algorithm 2 ready list.
func (scr *Scratch) readyList(n int) []int {
	return grow(&scr.readyQ, n)[:0]
}

// rlsOut returns witness buffers for a value-only RLS run over n tasks
// and m processors, in the state newRLSResult gives a fresh witness:
// every task unplaced and no processor marked.
func (scr *Scratch) rlsOut(n, m int) rlsOut {
	proc := grow(&scr.proc, n)
	for i := range proc {
		proc[i] = -1
	}
	marked := grow(&scr.marked, m)
	clear(marked)
	return rlsOut{proc: proc, start: grow(&scr.start, n), marked: marked}
}

// sboOut returns witness buffers for a value-only SBO merge over n
// tasks; the merge writes every entry.
func (scr *Scratch) sboOut(n int) (model.Assignment, []bool) {
	return grow(&scr.assign, n), grow(&scr.fromMem, n)
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
