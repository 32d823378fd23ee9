// Package dag provides the directed-acyclic-graph substrate for the
// precedence-constrained problem P | p_j, s_j, prec | Cmax, Mmax of
// Section 5 of the paper. A Graph carries per-task processing times and
// storage sizes together with precedence arcs, and offers the standard
// machinery list scheduling needs: cycle detection, topological orders,
// top/bottom levels and the critical path (the |CP| bound of Lemma 5).
package dag

import (
	"fmt"
	"slices"
	"sort"

	"storagesched/internal/model"
)

// Graph is a task DAG. Node i has processing time P[i] and storage size
// S[i]; an arc u -> v means v cannot start before u completes
// (u ∈ pred(v)).
type Graph struct {
	M int // number of processors the instance targets

	P []model.Time
	S []model.Mem

	preds [][]int // preds[v]: predecessors of v, sorted
	succs [][]int // succs[u]: successors of u, sorted
}

// New creates a DAG with n nodes and no arcs.
func New(m int, p []model.Time, s []model.Mem) *Graph {
	if len(p) != len(s) {
		panic(fmt.Sprintf("dag: len(p)=%d != len(s)=%d", len(p), len(s)))
	}
	n := len(p)
	g := &Graph{
		M:     m,
		P:     append([]model.Time(nil), p...),
		S:     append([]model.Mem(nil), s...),
		preds: make([][]int, n),
		succs: make([][]int, n),
	}
	return g
}

// FromInstance builds an edgeless DAG from an independent-task
// instance; RLS on such a graph is exactly the independent-task variant
// of Section 5.2.
func FromInstance(in *model.Instance) *Graph {
	return New(in.M, in.P(), in.S())
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.P) }

// AddEdge inserts the arc u -> v. Duplicate arcs are ignored. It panics
// on out-of-range nodes or self-loops; acyclicity is checked by
// Validate, not per-edge.
func (g *Graph) AddEdge(u, v int) {
	if u < 0 || u >= g.N() || v < 0 || v >= g.N() {
		panic(fmt.Sprintf("dag: edge (%d,%d) out of range [0,%d)", u, v, g.N()))
	}
	if u == v {
		panic(fmt.Sprintf("dag: self-loop on node %d", u))
	}
	if containsSorted(g.succs[u], v) {
		return
	}
	g.succs[u] = insertSorted(g.succs[u], v)
	g.preds[v] = insertSorted(g.preds[v], u)
}

// addEdges inserts a batch of in-range, loop-free arcs into a graph
// without arcs, building the same sorted duplicate-free lists AddEdge
// would, but carved from one backing array instead of grown one arc at
// a time. Each list's
// capacity ends at its own region, so a later AddEdge reallocates
// rather than overwrite a neighbour.
func (g *Graph) addEdges(edges [][2]int) {
	n := g.N()
	deg := make([]int, 2*n) // out-degrees, then in-degrees
	for _, e := range edges {
		deg[e[0]]++
		deg[n+e[1]]++
	}
	backing := make([]int, 2*len(edges))
	for i, d := range deg {
		if d == 0 {
			continue
		}
		list := backing[:0:d]
		backing = backing[d:]
		if i < n {
			g.succs[i] = list
		} else {
			g.preds[i-n] = list
		}
	}
	for _, e := range edges {
		g.succs[e[0]] = append(g.succs[e[0]], e[1])
		g.preds[e[1]] = append(g.preds[e[1]], e[0])
	}
	for _, lists := range [2][][]int{g.succs, g.preds} {
		for i, l := range lists {
			slices.Sort(l)
			lists[i] = slices.Compact(l)
		}
	}
}

func containsSorted(xs []int, x int) bool {
	i := sort.SearchInts(xs, x)
	return i < len(xs) && xs[i] == x
}

func insertSorted(xs []int, x int) []int {
	i := sort.SearchInts(xs, x)
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = x
	return xs
}

// Preds returns the predecessors of v (shared slice; do not mutate).
func (g *Graph) Preds(v int) []int { return g.preds[v] }

// Succs returns the successors of u (shared slice; do not mutate).
func (g *Graph) Succs(u int) []int { return g.succs[u] }

// PredLists returns the full predecessor table, suitable for
// model.Schedule.Validate.
func (g *Graph) PredLists() [][]int { return g.preds }

// NumEdges returns the number of arcs.
func (g *Graph) NumEdges() int {
	e := 0
	for _, ss := range g.succs {
		e += len(ss)
	}
	return e
}

// Validate checks m >= 1, p_i > 0, s_i >= 0 and acyclicity.
func (g *Graph) Validate() error {
	if g.M < 1 {
		return fmt.Errorf("dag: m = %d, need m >= 1", g.M)
	}
	for i := range g.P {
		if g.P[i] <= 0 {
			return fmt.Errorf("dag: node %d has p = %d, need p > 0", i, g.P[i])
		}
		if g.S[i] < 0 {
			return fmt.Errorf("dag: node %d has s = %d, need s >= 0", i, g.S[i])
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns a topological order (Kahn's algorithm, smallest
// node id first, so the order is deterministic) or an error if the
// graph has a cycle.
func (g *Graph) TopoOrder() ([]int, error) {
	n := g.N()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = len(g.preds[v])
	}
	// Min-heap on node id keeps the order deterministic.
	heap := &intHeap{}
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			heap.push(v)
		}
	}
	order := make([]int, 0, n)
	for heap.len() > 0 {
		u := heap.pop()
		order = append(order, u)
		for _, v := range g.succs[u] {
			indeg[v]--
			if indeg[v] == 0 {
				heap.push(v)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("dag: graph has a cycle (%d of %d nodes ordered)", len(order), n)
	}
	return order, nil
}

// intHeap is a tiny binary min-heap of ints (avoids container/heap
// interface overhead in hot loops).
type intHeap struct{ xs []int }

func (h *intHeap) len() int { return len(h.xs) }

func (h *intHeap) push(x int) {
	h.xs = append(h.xs, x)
	i := len(h.xs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.xs[parent] <= h.xs[i] {
			break
		}
		h.xs[parent], h.xs[i] = h.xs[i], h.xs[parent]
		i = parent
	}
}

func (h *intHeap) pop() int {
	top := h.xs[0]
	last := len(h.xs) - 1
	h.xs[0] = h.xs[last]
	h.xs = h.xs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.xs) && h.xs[l] < h.xs[smallest] {
			smallest = l
		}
		if r < len(h.xs) && h.xs[r] < h.xs[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.xs[i], h.xs[smallest] = h.xs[smallest], h.xs[i]
		i = smallest
	}
	return top
}

// TopLevels returns, for each node, the length of the longest chain of
// processing time ending just before the node starts (the earliest
// possible start time with unlimited processors).
func (g *Graph) TopLevels() ([]model.Time, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	top := make([]model.Time, g.N())
	for _, v := range order {
		for _, u := range g.preds[v] {
			if c := top[u] + g.P[u]; c > top[v] {
				top[v] = c
			}
		}
	}
	return top, nil
}

// BottomLevels returns, for each node, the length of the longest chain
// of processing time starting at (and including) the node. The maximum
// bottom level is the critical-path length.
func (g *Graph) BottomLevels() ([]model.Time, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	bottom := make([]model.Time, g.N())
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		bottom[v] = g.P[v]
		for _, w := range g.succs[v] {
			if c := g.P[v] + bottom[w]; c > bottom[v] {
				bottom[v] = c
			}
		}
	}
	return bottom, nil
}

// CriticalPath returns the length of the longest chain of processing
// times in the graph — the |CP| upper bound in the proof of Lemma 5 and
// a lower bound on C*max.
func (g *Graph) CriticalPath() (model.Time, error) {
	bottom, err := g.BottomLevels()
	if err != nil {
		return 0, err
	}
	var cp model.Time
	for _, b := range bottom {
		if b > cp {
			cp = b
		}
	}
	return cp, nil
}

// CriticalPathNodes returns one longest chain as a node sequence.
func (g *Graph) CriticalPathNodes() ([]int, error) {
	bottom, err := g.BottomLevels()
	if err != nil {
		return nil, err
	}
	// Start from a source node with maximal bottom level.
	best := -1
	for v := 0; v < g.N(); v++ {
		if len(g.preds[v]) != 0 {
			continue
		}
		if best == -1 || bottom[v] > bottom[best] {
			best = v
		}
	}
	if best == -1 && g.N() > 0 {
		return nil, fmt.Errorf("dag: no source node (cycle?)")
	}
	var path []int
	for v := best; v != -1; {
		path = append(path, v)
		next := -1
		for _, w := range g.succs[v] {
			if bottom[w] == bottom[v]-g.P[v] {
				next = w
				break
			}
		}
		v = next
	}
	return path, nil
}

// TotalWork returns Σ p_i.
func (g *Graph) TotalWork() model.Time {
	var w model.Time
	for _, p := range g.P {
		w += p
	}
	return w
}

// TotalMem returns Σ s_i.
func (g *Graph) TotalMem() model.Mem {
	var s model.Mem
	for _, x := range g.S {
		s += x
	}
	return s
}

// MaxS returns max_i s_i (0 for an empty graph).
func (g *Graph) MaxS() model.Mem {
	var mx model.Mem
	for _, x := range g.S {
		if x > mx {
			mx = x
		}
	}
	return mx
}

// Sources returns the nodes with no predecessors, ascending.
func (g *Graph) Sources() []int {
	var src []int
	for v := 0; v < g.N(); v++ {
		if len(g.preds[v]) == 0 {
			src = append(src, v)
		}
	}
	return src
}

// Sinks returns the nodes with no successors, ascending.
func (g *Graph) Sinks() []int {
	var snk []int
	for v := 0; v < g.N(); v++ {
		if len(g.succs[v]) == 0 {
			snk = append(snk, v)
		}
	}
	return snk
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.M, g.P, g.S)
	for u := range g.succs {
		c.succs[u] = append([]int(nil), g.succs[u]...)
		c.preds[u] = append([]int(nil), g.preds[u]...)
	}
	return c
}

// HasEdge reports whether the arc u -> v exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.N() || v < 0 || v >= g.N() {
		return false
	}
	return containsSorted(g.succs[u], v)
}
