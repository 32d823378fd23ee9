package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"storagesched/internal/bounds"
	"storagesched/internal/dag"
	"storagesched/internal/exact"
	"storagesched/internal/makespan"
	"storagesched/internal/model"
)

// TieBreak selects the arbitrary total order Algorithm 2 uses to break
// ties between tasks that can start equally soon. Corollary 4 uses SPT
// on independent tasks; the others are natural ablation choices.
type TieBreak int

const (
	// TieByID orders tasks by index — the paper's "arbitrary total
	// ordering".
	TieByID TieBreak = iota
	// TieSPT prefers shorter processing times (Section 5.2).
	TieSPT
	// TieLPT prefers longer processing times.
	TieLPT
	// TieBottomLevel prefers tasks with the longest remaining chain
	// (critical-path-first), the classic DAG list-scheduling priority.
	TieBottomLevel
)

// String implements fmt.Stringer for experiment tables.
func (t TieBreak) String() string {
	switch t {
	case TieByID:
		return "ID"
	case TieSPT:
		return "SPT"
	case TieLPT:
		return "LPT"
	case TieBottomLevel:
		return "BLevel"
	}
	return fmt.Sprintf("TieBreak(%d)", int(t))
}

// RLSResult is the outcome of one RLS∆ run together with the
// quantities the analysis of Lemmas 4–5 tracks.
type RLSResult struct {
	Delta float64

	// Schedule is the (π, σ) pair returned by Algorithm 2.
	Schedule *model.Schedule

	// LB is the Graham memory lower bound max(max s_i, ⌈Σs_i/m⌉)
	// computed at the top of the algorithm.
	LB model.Mem

	// Cap is the per-processor memory budget actually enforced,
	// ⌊∆·LB⌋ (or the explicit cap for the constrained variant).
	Cap model.Mem

	// Marked[j] is true if processor j was ever skipped because its
	// memory load made it infeasible for some ready task while a
	// higher-loaded processor was chosen (the "marked" processors of
	// Lemma 4).
	Marked []bool

	// Cmax and Mmax are the achieved objectives.
	Cmax model.Time
	Mmax model.Mem
	// SumCi is Σ_i (σ(i)+p_i), used by the tri-objective analysis.
	SumCi model.Time
}

// MarkedCount returns the number of marked processors; Lemma 4 proves
// it never exceeds ⌊m/(∆−1)⌋.
func (r *RLSResult) MarkedCount() int {
	c := 0
	for _, b := range r.Marked {
		if b {
			c++
		}
	}
	return c
}

// RLSCmaxRatio returns the Lemma 5 guarantee on the makespan,
// 2 + 1/(∆−2) − (∆−1)/(m(∆−2)), for ∆ > 2. For 2 < ∆ where the |CP|
// coefficient 1 − (∆−1)/(m(∆−2)) would be negative (very small ∆ or
// m), the bound degenerates to 1 + 1/(∆−2) because the |CP| term only
// helps; the returned value accounts for that. It returns +Inf for
// ∆ ≤ 2 (no guarantee exists there, cf. Lemma 4's discussion).
func RLSCmaxRatio(delta float64, m int) float64 {
	if delta <= 2 {
		return math.Inf(1)
	}
	work := 1 + 1/(delta-2)
	cp := 1 - (delta-1)/(float64(m)*(delta-2))
	if cp < 0 {
		cp = 0
	}
	return work + cp
}

// RLSSumCiRatio returns the Corollary 4 guarantee on ΣCi for the SPT
// variant: 2 + 1/(∆−2) (equivalently 1/ρ + 1 with ρ = (∆−2)/(∆−1),
// Lemma 6). +Inf for ∆ ≤ 2.
func RLSSumCiRatio(delta float64) float64 {
	if delta <= 2 {
		return math.Inf(1)
	}
	return 2 + 1/(delta-2)
}

// checkRLSDelta validates the RLS parameter: ∆ must be a finite number
// ≥ 2 (Lemma 4 gives no guarantee below 2, and a non-finite ∆ has no
// exact rational form — big.Rat.SetFloat64 returns nil for it, which
// used to surface as a nil-pointer panic deep inside memCapFloor).
func checkRLSDelta(delta float64) error {
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		return fmt.Errorf("core: RLS delta = %g is not finite", delta)
	}
	if delta < 2 {
		return fmt.Errorf("core: RLS delta = %g, need delta >= 2 (Lemma 4)", delta)
	}
	return nil
}

// MemCap returns the per-processor budget ⌊∆·LB⌋ that RLS∆ enforces,
// exported for sweep engines that memoize LB per instance and derive
// each grid point's cap from it. ∆ is a float64 and hence an exact
// rational; the floor is evaluated by exact.FloorMul's overflow-checked
// integer kernel. It reports an error for non-finite ∆ (which has no
// exact rational form) and a range error when ⌊∆·LB⌋ exceeds int64 —
// which previously truncated silently through big.Rat → Int64().
func MemCap(delta float64, lb model.Mem) (model.Mem, error) {
	cap, err := exact.FloorMul(delta, lb)
	if err != nil {
		return 0, fmt.Errorf("core: memory cap floor(%g*%d): %w", delta, lb, err)
	}
	return cap, nil
}

// RLS runs Algorithm 2 (Restricted List Scheduling) on a task DAG with
// parameter ∆ ≥ 2. It schedules, at each step, the ready task that can
// start the soonest on its least-loaded memory-feasible processor,
// breaking start-time ties with the given order. For ∆ ≥ 2 a feasible
// processor always exists (the counting argument behind Lemma 4), so
// the only error conditions are malformed inputs.
func RLS(g *dag.Graph, delta float64, tie TieBreak) (*RLSResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	lb := bounds.MemLB(g.S, g.M)
	cap, err := deltaCap(delta, lb)
	if err != nil {
		return nil, err
	}
	res, err := rlsWithCap(g, cap, tie)
	if err != nil {
		return nil, err
	}
	res.Delta = delta
	res.LB = lb
	return res, nil
}

// ErrCapTooSmall reports that the explicit memory cap made some task
// unplaceable.
type ErrCapTooSmall struct {
	Task int
	Cap  model.Mem
}

func (e ErrCapTooSmall) Error() string {
	return fmt.Sprintf("core: task %d fits on no processor under memory cap %d", e.Task, e.Cap)
}

// tieOrder precomputes the scheduling priority order for a tie-break
// rule: order[r] is the task scheduled r-th when all else is equal.
func tieOrder(g *dag.Graph, tie TieBreak) ([]int, error) {
	o := orderer{p: g.P}
	if tie == TieBottomLevel {
		bl, err := g.BottomLevels()
		if err != nil {
			return nil, err
		}
		o.bottom = bl
	}
	return o.order(tie)
}

// orderer computes tie-break orders with one sort per key
// (makespan.DescendingOrder). The LPT order (decreasing p, index ties)
// is sorted once and memoized, or handed in by InstancePrep: TieSPT is
// derived from it, and on independent tasks — where a task's bottom
// level is its p — TieBottomLevel is the LPT slice itself. Every order
// is the stable sort of the identity by its key.
type orderer struct {
	p []model.Time
	// bottom holds the bottom levels of a task DAG; nil on
	// independent tasks.
	bottom []model.Time
	lpt    []int
}

func (o *orderer) order(tie TieBreak) ([]int, error) {
	switch tie {
	case TieByID:
		order := make([]int, len(o.p))
		for i := range order {
			order[i] = i
		}
		return order, nil
	case TieLPT:
		return o.byP(), nil
	case TieSPT:
		return ascendingRuns(o.byP(), o.p), nil
	case TieBottomLevel:
		if o.bottom == nil {
			return o.byP(), nil
		}
		return makespan.DescendingOrder(o.bottom), nil
	}
	return nil, fmt.Errorf("core: unknown tie break %d", int(tie))
}

// byP returns the memoized LPT order.
func (o *orderer) byP() []int {
	if o.lpt == nil {
		o.lpt = makespan.DescendingOrder(o.p)
	}
	return o.lpt
}

// ascendingRuns turns a makespan.DescendingOrder(key) order into the
// ascending one: the runs of equal key in reverse, each kept in index
// order.
func ascendingRuns(desc []int, key []model.Time) []int {
	asc := make([]int, 0, len(desc))
	for end := len(desc); end > 0; {
		start := end - 1
		for start > 0 && key[desc[start-1]] == key[desc[start]] {
			start--
		}
		asc = append(asc, desc[start:end]...)
		end = start
	}
	return asc
}

// tieRank precomputes the priority rank of every task for a tie-break
// rule (lower rank = scheduled first on ties).
func tieRank(g *dag.Graph, tie TieBreak) ([]int, error) {
	order, err := tieOrder(g, tie)
	if err != nil {
		return nil, err
	}
	return rankOf(order), nil
}

// rankOf inverts a priority order into per-task ranks.
func rankOf(order []int) []int {
	rank := make([]int, len(order))
	for r, i := range order {
		rank[i] = r
	}
	return rank
}

// rlsWithCap is the shared Algorithm 2 entry for unprepared calls.
func rlsWithCap(g *dag.Graph, cap model.Mem, tie TieBreak) (*RLSResult, error) {
	rank, err := tieRank(g, tie)
	if err != nil {
		return nil, err
	}
	return rankedWitness(g, rank, predCounts(g), cap)
}

// predCounts returns the per-task predecessor counts that seed the
// ready-set bookkeeping of the Algorithm 2 loop.
func predCounts(g *dag.Graph) []int {
	np := make([]int, g.N())
	for v := range np {
		np[v] = len(g.Preds(v))
	}
	return np
}

// Both RLS loops keep the processors in a scratch slice sorted by
// (load, index), so one step costs O(|ready| + m) instead of scanning
// the m processors twice per ready task:
//
//   - the least-loaded memory-feasible processor (lowest index among
//     equal loads) is the first feasible entry, firstFeasible;
//   - the processors the Lemma 4 analysis marks for that choice — every
//     one with a strictly lower load — are the prefix before it that
//     lowerPrefix measures;
//   - a placement only raises the chosen processor's load, so it
//     alone moves right, by raise.

// firstFeasible returns the position in procs of the first processor
// that can take a task of size s under cap, or -1 when none can.
func firstFeasible(procs []int, memsize []model.Mem, s, cap model.Mem) int {
	for pos, j := range procs {
		if memsize[j]+s <= cap {
			return pos
		}
	}
	return -1
}

// lowerPrefix returns how many processors precede position pos of
// procs with a load strictly below that of procs[pos].
func lowerPrefix(procs []int, load []model.Time, pos int) int {
	l := load[procs[pos]]
	for pos > 0 && load[procs[pos-1]] == l {
		pos--
	}
	return pos
}

// raise restores the (load, index) order of procs after the load of
// procs[pos] grew.
func raise(procs []int, load []model.Time, pos int) {
	j := procs[pos]
	for ; pos+1 < len(procs); pos++ {
		k := procs[pos+1]
		if load[k] > load[j] || (load[k] == load[j] && k > j) {
			break
		}
		procs[pos] = k
	}
	procs[pos] = j
}

// rlsOut is where an RLS loop writes its witness: π and σ, one entry
// per task, and the Lemma 4 marks, one per processor. proc starts at -1
// for every task and marked all false. A caller that returns the
// witness passes the fresh buffers of newRLSResult; a caller that needs
// only the value passes its Scratch's (Scratch.rlsOut).
type rlsOut struct {
	proc   []int
	start  []model.Time
	marked []bool
}

// newRLSResult allocates the witness of one RLS run under cap over n
// tasks on m processors; the caller fills in the task sizes, and out()
// hands the loop the rest.
func newRLSResult(m, n int, cap model.Mem) *RLSResult {
	return &RLSResult{Schedule: model.NewSchedule(m, n), Cap: cap, Marked: make([]bool, m)}
}

func (r *RLSResult) out() rlsOut {
	return rlsOut{proc: r.Schedule.Proc, start: r.Schedule.Start, marked: r.Marked}
}

// rankedWitness runs rlsRanked into fresh buffers and returns the
// witness.
func rankedWitness(g *dag.Graph, rank, npreds []int, cap model.Mem) (*RLSResult, error) {
	res := newRLSResult(g.M, g.N(), cap)
	copy(res.Schedule.P, g.P)
	copy(res.Schedule.S, g.S)
	v, sumCi, err := rlsRanked(g, rank, npreds, cap, nil, res.out())
	if err != nil {
		return nil, err
	}
	res.Cmax, res.Mmax, res.SumCi = v.Cmax, v.Mmax, sumCi
	return res, nil
}

// rankedValue runs rlsRanked into scr's buffers and returns only the
// value; it allocates nothing once scr is warm.
func rankedValue(g *dag.Graph, rank, npreds []int, cap model.Mem, scr *Scratch) (model.Value, error) {
	scr, pooled := borrowScratch(scr)
	defer releaseScratch(scr, pooled)
	v, _, err := rlsRanked(g, rank, npreds, cap, scr, scr.rlsOut(g.N(), g.M))
	return v, err
}

// rlsRanked is the Algorithm 2 loop with a precomputed tie rank and
// predecessor counts. It writes the schedule into out and returns its
// (Cmax, Mmax) and ΣCi. It never mutates rank or npreds, so prepared
// sweeps may run it concurrently against shared slices. scr may be nil.
//
// Each step scans only the ready list. Rank is a permutation, so the
// (start, rank) minimum it picks does not depend on the list's order.
func rlsRanked(g *dag.Graph, rank, npreds []int, cap model.Mem, scr *Scratch, out rlsOut) (model.Value, model.Time, error) {
	scr, pooled := borrowScratch(scr)
	defer releaseScratch(scr, pooled)
	n := g.N()
	m := g.M

	s := g.S
	load := scr.loads(m)
	memsize := scr.mems(m)
	procs := scr.procOrder(m)
	pendingPreds := scr.predsBuf(npreds)
	readyTime := scr.readyBuf(n) // max over preds of completion
	ready := scr.readyList(n)
	for i, c := range pendingPreds {
		if c == 0 {
			ready = append(ready, i)
		}
	}
	var sumCi model.Time

	for scheduled := 0; scheduled < n; scheduled++ {
		best, bestPos := -1, -1 // index into ready, position in procs
		var bestStart model.Time
		var bestRank, lastPos int
		// A task that fits on the least-loaded processor goes there;
		// the others search procs.
		free0, load0 := cap-memsize[procs[0]], load[procs[0]]
		for r, i := range ready {
			pos, at := 0, load0
			if s[i] > free0 {
				if pos = firstFeasible(procs, memsize, s[i], cap); pos < 0 {
					// No processor can take this task. Another ready
					// task might still fit; defer i.
					continue
				}
				lastPos = max(lastPos, pos)
				at = load[procs[pos]]
			}
			start := max(readyTime[i], at)
			if best < 0 || start < bestStart || (start == bestStart && rank[i] < bestRank) {
				best, bestPos, bestStart, bestRank = r, pos, start, rank[i]
			}
		}
		if best < 0 {
			return model.Value{}, 0, ErrCapTooSmall{Task: firstUnscheduled(out.proc), Cap: cap}
		}
		// Analysis bookkeeping (Lemma 4): for each ready task, every
		// processor with a smaller load than its chosen one was skipped
		// because of memory. Those sets are prefixes of procs that grow
		// with the position, so the one of the last position covers
		// them all.
		for _, j := range procs[:lowerPrefix(procs, load, lastPos)] {
			out.marked[j] = true
		}
		i := ready[best]
		ready[best] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		proc := procs[bestPos]
		end := bestStart + g.P[i]
		out.proc[i] = proc
		out.start[i] = bestStart
		load[proc] = end
		memsize[proc] += s[i]
		raise(procs, load, bestPos)
		sumCi += end
		for _, w := range g.Succs(i) {
			if end > readyTime[w] {
				readyTime[w] = end
			}
			if pendingPreds[w]--; pendingPreds[w] == 0 {
				ready = append(ready, w)
			}
		}
	}

	// The objectives fall out of the loop's own bookkeeping: the final
	// per-processor loads and memory sizes are exactly what
	// Schedule.Cmax()/Mmax() would recompute, and ΣCi accumulated per
	// task.
	return model.Value{Cmax: maxTimeOf(load), Mmax: maxMemOf(memsize)}, sumCi, nil
}

// firstUnscheduled returns the lowest task that proc leaves unplaced
// (rlsOut starts every task at -1).
func firstUnscheduled(proc []int) int {
	return slices.Index(proc, -1)
}

// RLSIndependent runs the Section 5.2 independent-task variant: tasks
// are taken strictly in the tie-break order (SPT for Corollary 4) and
// each goes to its least-loaded memory-feasible processor. On
// independent tasks this coincides with Algorithm 2 whenever all ready
// times are equal, and it is the form whose ΣCi analysis (Lemma 6)
// requires tasks to be delayed only by order-earlier tasks.
func RLSIndependent(in *model.Instance, delta float64, tie TieBreak) (*RLSResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	lb := instanceMemLB(in)
	cap, err := deltaCap(delta, lb)
	if err != nil {
		return nil, err
	}
	res, err := rlsIndependentWithCap(in, cap, tie)
	if err != nil {
		return nil, err
	}
	res.Delta = delta
	res.LB = lb
	return res, nil
}

func rlsIndependentWithCap(in *model.Instance, cap model.Mem, tie TieBreak) (*RLSResult, error) {
	o := orderer{p: in.P()}
	order, err := o.order(tie)
	if err != nil {
		return nil, err
	}
	return independentWitness(in, order, cap)
}

// instanceMemLB is bounds.MemLB(in.S(), in.M), max(max s_i, ⌈Σs_i/m⌉),
// without copying the sizes out of the instance.
func instanceMemLB(in *model.Instance) model.Mem {
	m := model.Mem(in.M)
	return max(in.MaxS(), (in.TotalMem()+m-1)/m)
}

// independentWitness runs rlsIndependentOrdered into fresh buffers and
// returns the witness.
func independentWitness(in *model.Instance, order []int, cap model.Mem) (*RLSResult, error) {
	res := newRLSResult(in.M, in.N(), cap)
	for i, t := range in.Tasks {
		res.Schedule.P[i] = t.P
		res.Schedule.S[i] = t.S
	}
	v, sumCi, err := rlsIndependentOrdered(in, order, cap, nil, res.out())
	if err != nil {
		return nil, err
	}
	res.Cmax, res.Mmax, res.SumCi = v.Cmax, v.Mmax, sumCi
	return res, nil
}

// independentValue runs rlsIndependentOrdered into scr's buffers and
// returns only the value; it allocates nothing once scr is warm.
func independentValue(in *model.Instance, order []int, cap model.Mem, scr *Scratch) (model.Value, error) {
	scr, pooled := borrowScratch(scr)
	defer releaseScratch(scr, pooled)
	v, _, err := rlsIndependentOrdered(in, order, cap, scr, scr.rlsOut(in.N(), in.M))
	return v, err
}

// rlsIndependentOrdered is the Section 5.2 loop with a precomputed
// scheduling order. It writes the schedule into out and returns its
// (Cmax, Mmax) and ΣCi. It never mutates order, so prepared sweeps may
// run it concurrently against a shared order slice. scr may be nil.
func rlsIndependentOrdered(in *model.Instance, order []int, cap model.Mem, scr *Scratch, out rlsOut) (model.Value, model.Time, error) {
	scr, pooled := borrowScratch(scr)
	defer releaseScratch(scr, pooled)
	m := in.M
	load := scr.loads(m)
	memsize := scr.mems(m)
	procs := scr.procOrder(m)
	var sumCi model.Time
	for _, i := range order {
		t := in.Tasks[i]
		pos := firstFeasible(procs, memsize, t.S, cap)
		if pos < 0 {
			return model.Value{}, 0, ErrCapTooSmall{Task: i, Cap: cap}
		}
		// Lemma 4 bookkeeping, as in rlsRanked.
		for _, j := range procs[:lowerPrefix(procs, load, pos)] {
			out.marked[j] = true
		}
		proc := procs[pos]
		out.proc[i] = proc
		out.start[i] = load[proc]
		load[proc] += t.P
		memsize[proc] += t.S
		raise(procs, load, pos)
		sumCi += load[proc]
	}
	return model.Value{Cmax: maxTimeOf(load), Mmax: maxMemOf(memsize)}, sumCi, nil
}

// RLSPrepared memoizes the δ-independent work of RLSIndependent —
// instance validation, the Graham memory lower bound, and the
// tie-break orders — so a δ-sweep pays each exactly once per instance.
// Beyond that it holds one cap-free memo per tie (capFree), filled by
// the first Value call that needs it. It is safe for concurrent Run and
// Value calls.
type RLSPrepared struct {
	in     *model.Instance
	lb     model.Mem
	orders map[TieBreak][]int
	free   [numTies]capFree
}

// PrepareRLSIndependent validates the instance and precomputes the
// scheduling orders for the given tie-breaks (all four when none are
// given); it is PrepareInstance(in) followed by InstancePrep.RLS, which
// sorts by p once.
func PrepareRLSIndependent(in *model.Instance, ties ...TieBreak) (*RLSPrepared, error) {
	ip, err := PrepareInstance(in)
	if err != nil {
		return nil, err
	}
	return ip.RLS(ties...)
}

// LB returns the memoized Graham memory lower bound.
func (prep *RLSPrepared) LB() model.Mem { return prep.lb }

// Run executes one RLS∆ evaluation against the prepared state and
// returns its witness.
func (prep *RLSPrepared) Run(delta float64, tie TieBreak) (*RLSResult, error) {
	cap, err := deltaCap(delta, prep.lb)
	if err != nil {
		return nil, err
	}
	res, err := prep.RunWithCap(cap, tie)
	if err != nil {
		return nil, err
	}
	res.Delta = delta
	return res, nil
}

// Value is Run's (Cmax, Mmax) without the witness. scr is the caller's
// scratch (nil borrows from the internal pool); with a warm one, Value
// allocates nothing. The sweep engine's workers call it, one Scratch
// each. A δ whose cap never binds is answered from the tie's cap-free
// memo (capFree).
func (prep *RLSPrepared) Value(delta float64, tie TieBreak, scr *Scratch) (model.Value, error) {
	cap, err := deltaCap(delta, prep.lb)
	if err != nil {
		return model.Value{}, err
	}
	order, err := prep.order(tie)
	if err != nil {
		return model.Value{}, err
	}
	return prep.free[tie].value(cap,
		func() bool { return sizesFit(prep.in.Tasks, func(t model.Task) model.Mem { return t.S }) },
		func(cap model.Mem) (model.Value, error) { return independentValue(prep.in, order, cap, scr) })
}

// RunWithCap executes one evaluation under an explicit per-processor
// budget against the prepared state; it matches
// RLSIndependentWithCap(in, cap, tie) bit for bit.
func (prep *RLSPrepared) RunWithCap(cap model.Mem, tie TieBreak) (*RLSResult, error) {
	order, err := prep.order(tie)
	if err != nil {
		return nil, err
	}
	res, err := independentWitness(prep.in, order, cap)
	if err != nil {
		return nil, err
	}
	res.LB = prep.lb
	if prep.lb > 0 {
		res.Delta = float64(cap) / float64(prep.lb)
	}
	return res, nil
}

func (prep *RLSPrepared) order(tie TieBreak) ([]int, error) {
	order, ok := prep.orders[tie]
	if !ok {
		return nil, fmt.Errorf("core: tie-break %s not prepared", tie)
	}
	return order, nil
}

// numTies is the number of TieBreak values: the length of the
// prepared solvers' per-tie memo arrays.
const numTies = int(TieBottomLevel) + 1

// noCap is the memory cap no run can reach once the sizes' total fits
// an int64 (sizesFit).
const noCap = model.Mem(math.MaxInt64)

// capFree memoizes, for one prepared item and tie-break, the value of
// the RLS run under no memory cap. A run under a cap at least that
// value's Mmax makes the same choice at every step, so it has the same
// value and need not run:
//
//   - independent tasks: every placement of the cap-free run goes to the
//     least-loaded processor and leaves its memory at most Mmax, so it
//     is the capped loop's first feasible processor too;
//   - task DAGs: under the cap, only tasks the cap-free run did not
//     choose can be sent past the least-loaded processor or deferred.
//     That only raises their (start, rank) key, and rank is a
//     permutation, so the chosen task stays the unique minimum; it
//     still fits on the least-loaded processor.
//
// Only the value is shared: the Lemma 4 marks of a capped run can
// differ, so the witness entries always run the loop.
type capFree struct {
	once sync.Once
	v    model.Value
	ok   bool // v is the cap-free value
}

// value returns the value of the run under cap: the memo's when cap
// never binds, run(cap)'s otherwise. The first call fills the memo with
// run(noCap), unless fits reports that the sizes' total does not fit
// an int64 (sizesFit); a failed run leaves the memo unused too.
func (c *capFree) value(cap model.Mem, fits func() bool, run func(cap model.Mem) (model.Value, error)) (model.Value, error) {
	c.once.Do(func() {
		if fits() {
			v, err := run(noCap)
			c.v, c.ok = v, err == nil
		}
	})
	if c.binds(cap) {
		return run(cap)
	}
	return c.v, nil
}

// binds reports whether a run under cap must run the loop: the memo is
// unset, or the cap-free run's memory exceeds cap.
func (c *capFree) binds(cap model.Mem) bool {
	return !c.ok || c.v.Mmax > cap
}

// sizesFit reports whether the items' sizes total at most MaxInt64, so
// that no processor's memory overflows in any run and noCap never
// binds. The sizes are non-negative, so a running total that overflows
// turns negative at its first overflow.
func sizesFit[T any](items []T, size func(T) model.Mem) bool {
	var total model.Mem
	for _, it := range items {
		if total += size(it); total < 0 {
			return false
		}
	}
	return true
}

// deltaCap validates an RLS parameter and returns the budget ⌊∆·LB⌋
// it enforces.
func deltaCap(delta float64, lb model.Mem) (model.Mem, error) {
	if err := checkRLSDelta(delta); err != nil {
		return 0, err
	}
	return MemCap(delta, lb)
}

// RLSGraphPrepared memoizes the δ-independent work of RLS on a task
// DAG — validation (including the topological cycle check), the Graham
// memory lower bound and the tie-break ranks — so a
// δ-sweep pays each exactly once per graph. Beyond that it holds one
// cap-free memo per tie (capFree), filled by the first Value call that
// needs it. It is safe for concurrent Run and Value calls.
type RLSGraphPrepared struct {
	g      *dag.Graph
	lb     model.Mem
	npreds []int
	ranks  map[TieBreak][]int
	free   [numTies]capFree
}

// PrepareRLS validates the graph and precomputes the tie ranks for the
// given tie-breaks (all four when none are given) over one shared
// topological pass.
func PrepareRLS(g *dag.Graph, ties ...TieBreak) (*RLSGraphPrepared, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(ties) == 0 {
		ties = []TieBreak{TieByID, TieSPT, TieLPT, TieBottomLevel}
	}
	prep := &RLSGraphPrepared{
		g:      g,
		lb:     bounds.MemLB(g.S, g.M),
		npreds: predCounts(g),
		ranks:  make(map[TieBreak][]int, len(ties)),
	}
	o := orderer{p: g.P}
	for _, tie := range ties {
		if _, ok := prep.ranks[tie]; ok {
			continue
		}
		if tie == TieBottomLevel && o.bottom == nil {
			bl, err := g.BottomLevels()
			if err != nil {
				return nil, err
			}
			o.bottom = bl
		}
		order, err := o.order(tie)
		if err != nil {
			return nil, err
		}
		prep.ranks[tie] = rankOf(order)
	}
	return prep, nil
}

// LB returns the memoized Graham memory lower bound.
func (prep *RLSGraphPrepared) LB() model.Mem { return prep.lb }

// Run executes one RLS∆ evaluation against the prepared state and
// returns its witness; it matches RLS(g, delta, tie) bit for bit.
func (prep *RLSGraphPrepared) Run(delta float64, tie TieBreak) (*RLSResult, error) {
	cap, err := deltaCap(delta, prep.lb)
	if err != nil {
		return nil, err
	}
	res, err := prep.RunWithCap(cap, tie)
	if err != nil {
		return nil, err
	}
	res.Delta = delta
	return res, nil
}

// Value is Run's (Cmax, Mmax) without the witness. scr is the caller's
// scratch (nil borrows from the internal pool); with a warm one, Value
// allocates nothing. A δ whose cap never binds is answered from the
// tie's cap-free memo (capFree).
func (prep *RLSGraphPrepared) Value(delta float64, tie TieBreak, scr *Scratch) (model.Value, error) {
	cap, err := deltaCap(delta, prep.lb)
	if err != nil {
		return model.Value{}, err
	}
	rank, err := prep.rank(tie)
	if err != nil {
		return model.Value{}, err
	}
	return prep.free[tie].value(cap,
		func() bool { return sizesFit(prep.g.S, func(s model.Mem) model.Mem { return s }) },
		func(cap model.Mem) (model.Value, error) { return rankedValue(prep.g, rank, prep.npreds, cap, scr) })
}

// RunWithCap executes one evaluation under an explicit per-processor
// budget; it matches RLSWithCap(g, cap, tie) bit for bit.
func (prep *RLSGraphPrepared) RunWithCap(cap model.Mem, tie TieBreak) (*RLSResult, error) {
	rank, err := prep.rank(tie)
	if err != nil {
		return nil, err
	}
	res, err := rankedWitness(prep.g, rank, prep.npreds, cap)
	if err != nil {
		return nil, err
	}
	res.LB = prep.lb
	if prep.lb > 0 {
		res.Delta = float64(cap) / float64(prep.lb)
	}
	return res, nil
}

func (prep *RLSGraphPrepared) rank(tie TieBreak) ([]int, error) {
	rank, ok := prep.ranks[tie]
	if !ok {
		return nil, fmt.Errorf("core: tie-break %s not prepared", tie)
	}
	return rank, nil
}
