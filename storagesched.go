// Package storagesched is a Go implementation of the algorithms of
// Saule, Dutot and Mounié, "Scheduling with Storage Constraints"
// (IPDPS 2008): bi-objective scheduling of tasks on identical
// processors minimizing both the makespan Cmax and the maximum
// cumulative memory occupation Mmax.
//
// The package exposes, over the internal substrates:
//
//   - the task/instance/schedule model (independent tasks and DAGs),
//   - SBO∆ (Algorithm 1), the ((1+∆)ρ1, (1+1/∆)ρ2)-approximation for
//     independent tasks built from two single-objective sub-algorithms,
//   - RLS∆ (Algorithm 2), the (2+1/(∆−2)−(∆−1)/(m(∆−2)), ∆)-
//     approximation for precedence-constrained tasks, including the
//     tri-objective SPT variant of Corollary 4,
//   - the Section 7 constrained solvers for "min Cmax s.t. Mmax ≤ M",
//   - the P||Cmax toolbox (list scheduling, LPT, Multifit, the
//     Hochbaum–Shmoys PTAS and exact solvers),
//   - exact Pareto-front enumeration for small instances and the
//     Section 4 hardness instances,
//   - a parallel δ-sweep engine (Sweep) producing approximate Pareto
//     fronts at any instance size,
//   - deterministic workload generators and ASCII Gantt rendering.
//
// Quickstart:
//
//	in := storagesched.NewInstance(4,
//		[]storagesched.Time{9, 4, 6, 2},
//		[]storagesched.Mem{3, 8, 1, 5})
//	res, err := storagesched.SBOWithLPT(in, 1.0)
//	// res.Assignment places each task; res.Cmax/res.Mmax are achieved.
//
// # Sweeps and approximate Pareto fronts
//
// The paper's headline artifact is the family of (1+δ, 1+1/δ)-
// approximate schedules swept over δ. ParetoFront enumerates the exact
// front but is exponential and capped at 24 tasks; Sweep instead
// evaluates SBO and all four RLS tie-breaks across a δ-grid with a
// worker pool (one worker per CPU by default) and keeps the
// non-dominated hull of the achieved (Cmax, Mmax) points — an
// approximate front that scales to arbitrary instance sizes:
//
//	in := storagesched.GenUniform(200, 16, 1)
//	grid, err := storagesched.SweepGeometricGrid(0.25, 8, 32)
//	res, err := storagesched.Sweep(context.Background(), in,
//		storagesched.SweepConfig{Deltas: grid})
//	for _, p := range res.Front {
//		fmt.Println(p.Value, res.Runs[p.RunIndex].Label())
//	}
//
// Results are deterministic: runs are reported in grid order and the
// front is identical whatever the worker count or goroutine
// interleaving. Per-instance state (lower bounds, the SBO
// sub-schedules, the RLS tie-break orders) is computed once per sweep,
// not once per run; cancel the context to abandon a sweep mid-flight.
//
// # Batched sweeps
//
// Experiments sweep families × seeds of instances back to back.
// SweepBatch runs all of them through one shared worker pool — the
// pool never idles at instance boundaries — and streams each
// per-instance SweepResult to a callback in instance order, holding at
// most BatchConfig.MaxPending instances in memory however many the
// input sequence yields:
//
//	err := storagesched.SweepBatch(ctx,
//		storagesched.BatchOf(instances...),
//		storagesched.BatchConfig{Config: storagesched.SweepConfig{Deltas: grid}},
//		func(br storagesched.BatchResult) error {
//			if br.Err != nil {
//				return br.Err // or log and continue
//			}
//			fmt.Println(br.Index, br.Result.FrontValues())
//			return nil
//		})
//
// Each streamed Result is identical to what Sweep would return for the
// same instance and config, whatever the worker count. Items may carry
// per-instance config overrides, and a bad instance fails alone —
// BatchResult.Err — without stopping the batch.
//
// Batches mix task DAGs with independent-task instances: a BatchItem
// carries either an Instance or a Graph, and graph items sweep the RLS
// tie-breaks (Algorithm 2) over the δ ≥ 2 grid points against memoized
// per-graph state — SweepGraph is the single-graph special case:
//
//	g := storagesched.GenLayeredDAG(8, 25, 4, 1)
//	res, err := storagesched.SweepGraph(context.Background(), g,
//		storagesched.SweepConfig{Deltas: grid})
package storagesched

import (
	"context"
	"io"
	"iter"

	"storagesched/internal/bounds"
	"storagesched/internal/cache"
	"storagesched/internal/core"
	"storagesched/internal/dag"
	"storagesched/internal/engine"
	"storagesched/internal/gantt"
	"storagesched/internal/gen"
	"storagesched/internal/makespan"
	"storagesched/internal/model"
	"storagesched/internal/pareto"
	"storagesched/internal/refine"
	"storagesched/internal/shard"
)

// Model types.
type (
	// Time is an integer processing-time quantity.
	Time = model.Time
	// Mem is an integer storage quantity.
	Mem = model.Mem
	// Task is one task (ID, processing time P, storage size S).
	Task = model.Task
	// Instance is a set of independent tasks on M identical processors.
	Instance = model.Instance
	// Assignment maps task index to processor.
	Assignment = model.Assignment
	// Schedule is a timed schedule (assignment plus start times).
	Schedule = model.Schedule
	// Value is a point (Cmax, Mmax) in objective space.
	Value = model.Value
	// Graph is a task DAG for the precedence-constrained problem.
	Graph = dag.Graph
)

// NewInstance builds an independent-task instance from parallel
// processing-time and storage vectors.
func NewInstance(m int, p []Time, s []Mem) *Instance { return model.NewInstance(m, p, s) }

// ReadInstanceJSON decodes an instance from JSON.
func ReadInstanceJSON(r io.Reader) (*Instance, error) { return model.ReadInstanceJSON(r) }

// NewGraph builds a task DAG with no arcs; add precedence with
// (*Graph).AddEdge(u, v) meaning u must complete before v starts.
func NewGraph(m int, p []Time, s []Mem) *Graph { return dag.New(m, p, s) }

// ReadGraphJSON decodes a task DAG from JSON — the instance format
// plus an "edges" array of [u, v] pairs — and validates it.
func ReadGraphJSON(r io.Reader) (*Graph, error) { return dag.ReadGraphJSON(r) }

// GraphFromInstance wraps independent tasks as an edgeless DAG.
func GraphFromInstance(in *Instance) *Graph { return dag.FromInstance(in) }

// Single-objective P||Cmax algorithms, usable as SBO sub-algorithms.
type (
	// MakespanAlgorithm assigns abstract sizes to processors.
	MakespanAlgorithm = makespan.Algorithm
	// ListScheduling is Graham's 2−1/m list scheduling.
	ListScheduling = makespan.ListScheduling
	// LPT is longest-processing-time-first, 4/3−1/(3m).
	LPT = makespan.LPT
	// LDM is the Karmarkar–Karp largest differencing method.
	LDM = makespan.LDM
	// Multifit is the 13/11 MULTIFIT algorithm.
	Multifit = makespan.Multifit
	// PTAS is the Hochbaum–Shmoys dual-approximation scheme (1+ε).
	PTAS = makespan.PTAS
	// ExactDP solves P||Cmax exactly for n ≤ 24 (exponential).
	ExactDP = makespan.ExactDP
	// BranchAndBound solves P||Cmax exactly with DFS pruning.
	BranchAndBound = makespan.BranchAndBound
)

// SBOResult is the outcome of one SBO∆ run (Algorithm 1): the
// combined assignment π∆, its achieved (Cmax, Mmax), and the analysis
// bookkeeping of the two sub-schedules it merged.
type SBOResult = core.SBOResult

// SBO runs Algorithm 1 with explicit sub-algorithms for the makespan
// (algC, a ρ1-approximation) and memory (algM, ρ2) schedules.
func SBO(in *Instance, delta float64, algC, algM MakespanAlgorithm) (*SBOResult, error) {
	return core.SBO(in, delta, algC, algM)
}

// SBOWithLS runs SBO∆ with Graham list scheduling on both objectives.
func SBOWithLS(in *Instance, delta float64) (*SBOResult, error) { return core.SBOWithLS(in, delta) }

// SBOWithLPT runs SBO∆ with LPT on both objectives.
func SBOWithLPT(in *Instance, delta float64) (*SBOResult, error) { return core.SBOWithLPT(in, delta) }

// SBOWithPTAS runs SBO∆ with the PTAS on both objectives — the
// Corollary 1 configuration (1+∆+ε, 1+1/∆+ε).
func SBOWithPTAS(in *Instance, delta, eps float64) (*SBOResult, error) {
	return core.SBOWithPTAS(in, delta, eps)
}

// SBORatio returns ((1+∆)ρ1, (1+1/∆)ρ2), the Properties 1–2 pair.
func SBORatio(delta, rho1, rho2 float64) (float64, float64) { return core.SBORatio(delta, rho1, rho2) }

// SBOPrepared memoizes the ∆-independent half of Algorithm 1 (the two
// sub-schedules π1/π2 and their objective values); Run and Constrained
// evaluate against it without re-running the sub-algorithms.
type SBOPrepared = core.SBOPrepared

// PrepareSBO validates the instance and runs the two sub-algorithms
// once, for repeated SBO evaluations over a ∆- or budget-sweep.
func PrepareSBO(in *Instance, algC, algM MakespanAlgorithm) (*SBOPrepared, error) {
	return core.PrepareSBO(in, algC, algM)
}

// RLS results, orders and runners (Algorithm 2).
type (
	// RLSResult is one RLS∆ run with its analysis bookkeeping.
	RLSResult = core.RLSResult
	// TieBreak selects the total order used to break start-time ties.
	TieBreak = core.TieBreak
)

// Tie-break orders for RLS.
const (
	TieByID        = core.TieByID
	TieSPT         = core.TieSPT
	TieLPT         = core.TieLPT
	TieBottomLevel = core.TieBottomLevel
)

// RLS runs Restricted List Scheduling on a task DAG with ∆ ≥ 2.
func RLS(g *Graph, delta float64, tie TieBreak) (*RLSResult, error) { return core.RLS(g, delta, tie) }

// RLSGraphPrepared memoizes the ∆-independent work of RLS on a task
// DAG (validation, topological structure, tie ranks); Run, RunWithCap
// and Constrained evaluate against it without re-ranking per call.
type RLSGraphPrepared = core.RLSGraphPrepared

// PrepareRLS validates the graph and precomputes tie ranks (all four
// tie-breaks when none are given) for repeated RLS evaluations — a
// ∆- or budget-sweep over one graph prepares once and runs per point.
func PrepareRLS(g *Graph, ties ...TieBreak) (*RLSGraphPrepared, error) {
	return core.PrepareRLS(g, ties...)
}

// RLSIndependent runs the Section 5.2 independent-task variant (use
// TieSPT for the tri-objective guarantee of Corollary 4).
func RLSIndependent(in *Instance, delta float64, tie TieBreak) (*RLSResult, error) {
	return core.RLSIndependent(in, delta, tie)
}

// RLSPrepared memoizes the ∆-independent work of RLSIndependent
// (validation, the memory lower bound, the tie-break orders); Run,
// RunWithCap and Constrained evaluate against it per grid point.
type RLSPrepared = core.RLSPrepared

// PrepareRLSIndependent validates the instance and precomputes the
// scheduling orders for the given tie-breaks (all four when none are
// given) for repeated independent-task RLS evaluations.
func PrepareRLSIndependent(in *Instance, ties ...TieBreak) (*RLSPrepared, error) {
	return core.PrepareRLSIndependent(in, ties...)
}

// RLSCmaxRatio returns the Lemma 5 makespan guarantee for ∆ > 2.
func RLSCmaxRatio(delta float64, m int) float64 { return core.RLSCmaxRatio(delta, m) }

// RLSSumCiRatio returns the Corollary 4 ΣCi guarantee, 2 + 1/(∆−2).
func RLSSumCiRatio(delta float64) float64 { return core.RLSSumCiRatio(delta) }

// Constrained solvers (Section 7).
var (
	// ErrInfeasible: the memory budget is below the Graham lower
	// bound, so no schedule exists.
	ErrInfeasible = core.ErrInfeasible
	// ErrNotCertified: no schedule found although one may exist
	// (budget in the [LB, 2·LB) band).
	ErrNotCertified = core.ErrNotCertified
)

// ConstrainedDAG schedules a DAG under a hard memory budget. For a
// budget sweep over one graph, PrepareRLS once and call
// (*RLSGraphPrepared).Constrained per budget instead.
func ConstrainedDAG(g *Graph, budget Mem, tie TieBreak) (*RLSResult, error) {
	return core.ConstrainedDAG(g, budget, tie)
}

// ConstrainedIndependent solves "min Cmax s.t. Mmax ≤ budget" on
// independent tasks via the SBO parameter search and capped RLS,
// returning the better feasible assignment. For a budget sweep over
// one instance, PrepareConstrainedIndependent once and call Solve per
// budget instead.
func ConstrainedIndependent(in *Instance, budget Mem) (Assignment, Value, error) {
	return core.ConstrainedIndependent(in, budget)
}

// ConstrainedPrepared memoizes the budget-independent work of
// ConstrainedIndependent (both Section 7 routes' prepared halves);
// Solve evaluates one budget against it.
type ConstrainedPrepared = core.ConstrainedPrepared

// PrepareConstrainedIndependent prepares an instance for a budget
// sweep of the constrained solver.
func PrepareConstrainedIndependent(in *Instance) (*ConstrainedPrepared, error) {
	return core.PrepareConstrainedIndependent(in)
}

// BoundsRecord collects every makespan and memory lower bound for an
// item (work/m, max task, critical path, the Graham memory bound) —
// the denominators of all approximation ratios reported here.
type BoundsRecord = bounds.Record

// BoundsForInstance computes every lower bound for an instance.
func BoundsForInstance(in *Instance) BoundsRecord { return bounds.ForInstance(in) }

// BoundsForGraph computes every lower bound for a DAG.
func BoundsForGraph(g *Graph) (BoundsRecord, error) { return bounds.ForGraph(g) }

// MemLB returns the Graham memory lower bound max(max s, ⌈Σs/m⌉).
func MemLB(s []Mem, m int) Mem { return bounds.MemLB(s, m) }

// ParetoPoint is one exact Pareto-front point: its (Cmax, Mmax) value
// and a witness assignment achieving it.
type ParetoPoint = pareto.Point

// ParetoFront enumerates the exact Pareto front (n ≤ 24).
func ParetoFront(in *Instance) ([]ParetoPoint, error) { return pareto.Front(in) }

// Parallel δ-sweeps (approximate Pareto fronts at any size).
type (
	// SweepConfig selects the δ-grid, worker count, SBO
	// sub-algorithms and RLS tie-breaks of a sweep.
	SweepConfig = engine.Config
	// SweepResult carries the per-run outcomes (deterministic grid
	// order), the assembled front and the memoized lower bounds.
	SweepResult = engine.Result
	// SweepRun is one (algorithm, δ) evaluation inside a sweep: its
	// provenance and (Cmax, Mmax) value. It carries no schedule; SBO,
	// RLSIndependent, RLS or a prepared Run recomputes one.
	SweepRun = engine.Run
	// SweepFrontPoint is one approximate-front point with the index
	// of its witness run.
	SweepFrontPoint = engine.FrontPoint
	// SweepAlgorithm tags a run as SBO or RLS.
	SweepAlgorithm = engine.Algorithm
)

// Sweep algorithm tags.
const (
	SweepSBO = engine.AlgSBO
	SweepRLS = engine.AlgRLS
)

// Sweep evaluates SBO and RLS over a δ-grid concurrently and returns
// the approximate Pareto front; see the package documentation.
func Sweep(ctx context.Context, in *Instance, cfg SweepConfig) (*SweepResult, error) {
	return engine.Sweep(ctx, in, cfg)
}

// SweepGraph is the task-DAG form of Sweep: it runs the RLS tie-breaks
// over the δ ≥ 2 part of the grid against memoized per-graph state
// (topological structure, bottom levels, tie ranks, bounds) and
// assembles the approximate Pareto front of the achieved (Cmax, Mmax)
// points. SBO is defined on independent tasks and does not run.
func SweepGraph(ctx context.Context, g *Graph, cfg SweepConfig) (*SweepResult, error) {
	return engine.SweepGraph(ctx, g, cfg)
}

// Batched multi-instance sweeps (streaming fronts in bounded memory).
type (
	// BatchItem is one work item of a batch sweep — an instance or a
	// task DAG — with an optional per-item config override or source
	// error.
	BatchItem = engine.BatchItem
	// BatchConfig is the batch-wide sweep default plus the shared pool
	// size (Workers), the streaming window (MaxPending), an optional
	// front cache (Cache) and an optional resident pool (Pool).
	BatchConfig = engine.BatchConfig
	// BatchResult is one instance's sweep outcome, streamed in
	// instance order.
	BatchResult = engine.BatchResult
)

// SweepBatch sweeps every instance of items through one shared worker
// pool and streams each per-instance SweepResult to emit in instance
// order; at most cfg.MaxPending instances are held in memory at once.
// See the package documentation.
func SweepBatch(ctx context.Context, items iter.Seq[BatchItem], cfg BatchConfig, emit func(BatchResult) error) error {
	return engine.SweepBatch(ctx, items, cfg, emit)
}

// SweepPool is a resident worker pool shared across batch sweeps: set
// it on BatchConfig.Pool to submit many SweepBatch calls — concurrent
// or back to back — to one long-lived set of workers and their warm
// scratch buffers, the schedd daemon shape. Every batch's results are
// byte-identical to the same batch on a private per-call pool.
type SweepPool = engine.Pool

// NewSweepPool starts a resident pool of the given size (0 = one per
// CPU). Close it only after every batch using it has returned.
func NewSweepPool(workers int) *SweepPool { return engine.NewPool(workers) }

// BatchOf adapts a slice of instances to the item sequence SweepBatch
// consumes.
func BatchOf(instances ...*Instance) iter.Seq[BatchItem] { return engine.BatchOf(instances...) }

// BatchOfGraphs adapts a slice of task DAGs to the item sequence
// SweepBatch consumes; graph and instance items mix freely in one
// batch (set BatchItem.Graph or BatchItem.Instance per item).
func BatchOfGraphs(graphs ...*Graph) iter.Seq[BatchItem] { return engine.BatchOfGraphs(graphs...) }

// BatchOfItems adapts prepared batch items — mixed kinds, overrides
// and tags intact — to the sequence SweepBatch and SweepBatchAdaptive
// consume, yielding them in slice order.
func BatchOfItems(items ...BatchItem) iter.Seq[BatchItem] { return engine.BatchOfItems(items...) }

// Adaptive δ-grid refinement (see internal/refine): a sweep that
// spends extra grid points only where the front bends.
type (
	// RefineConfig selects the relative-gap threshold and the per-item
	// refinement point budget of an adaptive sweep.
	RefineConfig = refine.Config
)

// Adaptive-refinement defaults (RefineConfig zero values resolve to
// these).
const (
	DefaultRefineGap       = refine.DefaultGap
	DefaultRefineMaxPoints = refine.DefaultMaxPoints
)

// SweepBatchAdaptive sweeps each item in two phases inside one batch: a
// coarse phase at cfg's grid, then — the moment that phase is done — a
// refinement phase that subdivides δ where the coarse front's relative
// gaps exceed rcfg.Gap (graph items plan RLS-eligible points only,
// δ ≥ 2), against the item's already-prepared state: each item is
// prepared once. Coarse and refined runs merge into one deduplicated
// front per item, streamed in input order while later items are still
// being read, so memory is O(MaxPending), as for SweepBatch. Both
// phases share cfg's pool and cache; coarse entries are
// interchangeable with plain SweepBatch runs of the same grid, refined
// entries key on their own grid's fingerprint, and both are written
// when the item is emitted.
func SweepBatchAdaptive(ctx context.Context, items iter.Seq[BatchItem], cfg BatchConfig, rcfg RefineConfig, emit func(BatchResult) error) error {
	return refine.SweepBatchAdaptive(ctx, items, cfg, rcfg, emit)
}

// RefineGrid plans the refinement δ-grid for one swept Result: the
// δ-intervals bracketing adjacent front points whose relative gap
// exceeds cfg.Gap, geometrically subdivided within cfg.MaxPoints.
// graph marks task-DAG results, whose planned points are clamped to
// δ ≥ 2. Fronts with fewer than two points plan nothing.
func RefineGrid(res *SweepResult, graph bool, cfg RefineConfig) ([]float64, error) {
	return refine.Grid(res, graph, cfg)
}

// FrontMaxRelGap returns the largest relative gap between adjacent
// front points — the front-quality metric adaptive refinement drives
// down.
func FrontMaxRelGap(front []SweepFrontPoint) float64 { return refine.MaxRelGap(front) }

// Content-addressed front caching (see internal/cache): sweeps keyed
// by canonical item bytes + config fingerprint, stored in an in-memory
// LRU tier and an optional corruption-tolerant disk tier.
type (
	// SweepCache is the two-tier content-addressed front cache; set it
	// on BatchConfig.Cache to skip recomputing known fronts. A nil
	// *SweepCache means caching off.
	SweepCache = cache.Cache
	// CacheConfig selects the cache directory (disk tier) and the
	// memory-tier entry bound.
	CacheConfig = cache.Config
	// CacheStats is a snapshot of hit/miss/eviction counters.
	CacheStats = cache.Stats
	// CacheKey is a cache entry's content address.
	CacheKey = cache.Key
	// BlobStore is the storage seam behind the cache's persistent
	// tier; set CacheConfig.Store to plug in a cluster-shared store.
	BlobStore = cache.BlobStore
	// BlobInfo describes one stored blob (key, size, mod time).
	BlobInfo = cache.BlobInfo
	// DirStore is the directory-backed BlobStore — append-only segment
	// files, one per writer process, indexed when the store opens.
	DirStore = cache.DirStore
	// CacheGCPolicy parameterizes one lifecycle eviction sweep (size
	// cap, age cap).
	CacheGCPolicy = cache.GCPolicy
	// CacheGCResult reports what one eviction sweep saw and did.
	CacheGCResult = cache.GCResult
	// CacheVerifyResult reports what one integrity pass saw and did.
	CacheVerifyResult = cache.VerifyResult
)

// NewDirStore opens (creating if absent) a directory blob store — the
// same store CacheConfig.Dir builds implicitly.
func NewDirStore(dir string) (*DirStore, error) { return cache.NewDirStore(dir) }

// NewSweepCache builds a front cache; wire it into a batch via
// BatchConfig.Cache. Results served from it equal computed ones
// (bounds, run provenance and values, the front) and are flagged
// BatchResult.CacheHit.
func NewSweepCache(cfg CacheConfig) (*SweepCache, error) { return cache.New(cfg) }

// Shard coordination (see internal/shard): deterministic splitting of
// a batch across K processes or sweeps; ShardPlan.Locals lists each
// shard's slice of the input in global order.
type (
	// ShardPolicy places items on shards (round-robin or hash-affine).
	ShardPolicy = shard.Policy
	// ShardPlan is a deterministic placement of items onto K shards.
	ShardPlan = shard.Plan
)

// Shard placement policies. Hash-affine placement routes identical
// items to the same shard, keeping shard-local caches hot.
const (
	ShardRoundRobin = shard.RoundRobin
	ShardHashAffine = shard.HashAffine
)

// ParseShardPolicy parses a policy name ("rr" | "hash") as accepted on
// command lines.
func ParseShardPolicy(s string) (ShardPolicy, error) { return shard.ParsePolicy(s) }

// NewShardPlan places items onto k shards under the policy; the plan
// depends only on the inputs, never on timing.
func NewShardPlan(k int, policy ShardPolicy, items []BatchItem) (*ShardPlan, error) {
	return shard.NewPlan(k, policy, items)
}

// SweepLinearGrid returns n evenly spaced δ values covering [lo, hi],
// or an error for an invalid grid shape.
func SweepLinearGrid(lo, hi float64, n int) ([]float64, error) { return engine.LinearGrid(lo, hi, n) }

// SweepGeometricGrid returns n geometrically spaced δ values covering
// [lo, hi] — the natural spacing for the (1+δ, 1+1/δ) trade-off — or
// an error for an invalid grid shape.
func SweepGeometricGrid(lo, hi float64, n int) ([]float64, error) {
	return engine.GeometricGrid(lo, hi, n)
}

// GanttOptions configure ASCII Gantt rendering (chart width, memory
// annotations).
type GanttOptions = gantt.Options

// RenderGantt writes an ASCII Gantt chart of a timed schedule.
func RenderGantt(w io.Writer, sc *Schedule, opts GanttOptions) error {
	return gantt.Render(w, sc, opts)
}

// RenderAssignment renders an independent-task assignment.
func RenderAssignment(w io.Writer, in *Instance, a Assignment, opts GanttOptions) error {
	return gantt.RenderAssignment(w, in, a, opts)
}

// ScheduleFromAssignment packs an assignment into a timed schedule.
func ScheduleFromAssignment(in *Instance, a Assignment) *Schedule {
	return model.FromAssignment(in, a)
}

// ScheduleFromAssignmentSPT packs an assignment running each
// processor's tasks shortest-first, which minimises ΣCi for the fixed
// assignment.
func ScheduleFromAssignmentSPT(in *Instance, a Assignment) *Schedule {
	return model.FromAssignmentSPT(in, a)
}

// Generators (deterministic; see internal/gen for the full set).

// GenUniform draws n tasks with uniform independent p and s.
func GenUniform(n, m int, seed int64) *Instance { return gen.Uniform(n, m, seed) }

// GenEmbeddedCode draws the multi-SoC code-placement mix.
func GenEmbeddedCode(n, m int, seed int64) *Instance { return gen.EmbeddedCode(n, m, seed) }

// GenGridBatch draws the grid-physics batch mix.
func GenGridBatch(n, m int, seed int64) *Instance { return gen.GridBatch(n, m, seed) }

// GenLayeredDAG builds a random layered task graph.
func GenLayeredDAG(m, layers, width int, seed int64) *Graph {
	return gen.LayeredDAG(m, layers, width, seed)
}

// GenForkJoin builds a staged fork-join task graph.
func GenForkJoin(m, stages, width int, seed int64) *Graph {
	return gen.ForkJoin(m, stages, width, seed)
}
