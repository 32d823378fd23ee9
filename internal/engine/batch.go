package engine

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"

	"storagesched/internal/bounds"
	"storagesched/internal/cache"
	"storagesched/internal/core"
	"storagesched/internal/dag"
	"storagesched/internal/makespan"
	"storagesched/internal/model"
)

// BatchItem is one work item of a batch sweep — an independent-task
// instance or a task DAG, with an optional per-item configuration
// override. Exactly one of Instance and Graph must be set.
type BatchItem struct {
	// Instance is the independent-task instance to sweep.
	Instance *model.Instance

	// Graph is the task DAG to sweep. Graph sweeps run the RLS family
	// only (SBO is defined on independent tasks), so the item's
	// effective grid needs at least one δ ≥ 2 and must not set
	// SkipRLS.
	Graph *dag.Graph

	// Override, when non-nil, replaces the batch-wide base Config for
	// this instance only (its Workers field is ignored — the worker
	// pool is shared by the whole batch).
	Override *Config

	// Err, when non-nil, marks the item as failed at the source (for
	// example a file that did not parse): the instance is not swept
	// and its BatchResult carries this error. Streaming producers use
	// it to report per-item read errors without aborting the batch.
	Err error

	// Tag is opaque per-item context (a filename, a seed, a family
	// label) echoed verbatim on the item's BatchResult. The item
	// sequence is consumed from the batch's producer goroutine, so a
	// tag is the race-free way to hand the consumer side per-item
	// metadata.
	Tag any
}

// BatchOf adapts a slice of instances to the item sequence SweepBatch
// consumes, with no per-instance overrides.
func BatchOf(instances ...*model.Instance) iter.Seq[BatchItem] {
	return func(yield func(BatchItem) bool) {
		for _, in := range instances {
			if !yield(BatchItem{Instance: in}) {
				return
			}
		}
	}
}

// BatchOfGraphs adapts a slice of task DAGs to the item sequence
// SweepBatch consumes, with no per-graph overrides.
func BatchOfGraphs(graphs ...*dag.Graph) iter.Seq[BatchItem] {
	return func(yield func(BatchItem) bool) {
		for _, g := range graphs {
			if !yield(BatchItem{Graph: g}) {
				return
			}
		}
	}
}

// BatchOfItems adapts prepared batch items — mixed kinds, overrides
// and tags intact — to the sequence SweepBatch consumes, yielding
// them in slice order.
func BatchOfItems(items ...BatchItem) iter.Seq[BatchItem] {
	return func(yield func(BatchItem) bool) {
		for _, item := range items {
			if !yield(item) {
				return
			}
		}
	}
}

// BatchConfig parameterizes SweepBatch. The embedded Config is the
// default sweep configuration of every instance (items may override it
// individually); its Workers field sizes the one pool shared by the
// whole batch.
type BatchConfig struct {
	Config

	// MaxPending bounds how many instances may be in flight — admitted
	// to the pool but not yet emitted — at once, which bounds the
	// batch's memory to O(MaxPending × runs per instance) however many
	// instances the sequence yields. 0 means 2× the worker count, so
	// the pool stays fed across instance boundaries.
	MaxPending int

	// Pool, when non-nil, is a resident worker pool (NewPool) shared
	// with other batches: this batch's jobs are submitted to it instead
	// of a private per-call pool, and the batch's effective worker
	// count is the pool's size (the Config.Workers field is ignored).
	// Output is byte-identical either way; what changes is that jobs of
	// concurrent batches interleave in one pool, so a long-running
	// service keeps its workers — and their warm scratch buffers —
	// across requests.
	Pool *Pool

	// Metrics, when non-nil, is the engine instrument bundle
	// (NewMetrics) the batch's jobs update as they queue, start and
	// finish. Instrumentation observes the job flow without touching
	// results: output bytes are identical with metrics on or off.
	Metrics *Metrics

	// Cache, when non-nil, is the content-addressed front cache the
	// batch consults at admission and writes back at emission: an item
	// whose key (canonical bytes + config fingerprint) is present skips
	// job generation entirely and its cached Result streams out in the
	// usual order. A cached Result is a computed one — Bounds, every
	// Run's provenance, objective value and error message, and the
	// Front — so output is byte-identical either way, and
	// BatchResult.CacheHit tells the cases apart. An entry that does
	// not decode, fails the entry checks (checkResult) or does not fit
	// the item's job layout is a miss, counted by cache.Reject — the
	// item is computed and the entry overwritten. The cache may be shared across batches,
	// goroutines and (via its disk tier) shard processes.
	Cache *cache.Cache
}

// BatchResult is one instance's outcome. Results are delivered in
// instance order regardless of which workers ran the jobs.
type BatchResult struct {
	// Index is the zero-based position of the instance in the input
	// sequence.
	Index int

	// Result is the instance's sweep outcome, exactly what Sweep would
	// have returned for the same instance and config. Nil when Err is
	// non-nil.
	Result *Result

	// Err is a per-instance failure (an invalid instance or override,
	// or a source error carried by the item); the batch continues past
	// it to the remaining instances.
	Err error

	// Tag is the item's Tag, echoed verbatim.
	Tag any

	// CacheHit reports that Result was served from BatchConfig.Cache
	// instead of being computed.
	CacheHit bool
}

// batchJob is one (instance, grid point) evaluation in the shared pool.
type batchJob struct {
	st  *batchState
	idx int
}

// batchState is the in-flight record of one item: its effective
// config, deterministic job list, memoized prepared state (computed
// exactly once, by the first worker to touch the item) and the runs
// landing at their job indexes. Exactly one of in and g is non-nil for
// a sweepable item. In a refining batch (SweepBatchRefined) the same
// record carries the item through both phases: once its coarse jobs
// are done, the feeder swaps in the refinement grid, jobs and run
// slots, and the prepared state is reused as it stands.
type batchState struct {
	index int
	in    *model.Instance
	g     *dag.Graph
	tag   any
	cfg   Config
	ctx   context.Context
	jobs  []job
	runs  []Run

	prepMu    sync.Mutex
	prepSBO   *core.SBOPrepared
	prepRLS   *core.RLSPrepared
	prepGraph *core.RLSGraphPrepared
	bounds    bounds.Record
	err       error

	// cached is the decoded Result of a cache hit (the item ran no
	// jobs); key/writeBack route a computed Result back into the cache
	// at emission.
	cached    *Result
	key       cache.Key
	writeBack bool

	// met is the batch's instrument bundle (nil when uninstrumented);
	// prepared flags the memoized state as built, so later jobs of the
	// item skip prepMu and count as memo hits.
	met      *Metrics
	prepared atomic.Bool

	remaining atomic.Int64
	skipped   atomic.Bool
	done      chan struct{}
}

// prepareOnce builds the memoized state unless a job of the item
// already has, and reports whether this call built it — so every job
// but the preparing one counts as a memo hit, exactly, whatever the
// worker count.
func (st *batchState) prepareOnce() bool {
	if st.prepared.Load() {
		return false
	}
	st.prepMu.Lock()
	defer st.prepMu.Unlock()
	if st.prepared.Load() {
		return false
	}
	st.prepare()
	st.prepared.Store(true)
	return true
}

// prepare memoizes the per-item state shared by every run — for
// instances one core.PrepareInstance, whose sort of p feeds the SBO
// sub-schedules π1/π2, the RLS tie-break orders and the lower-bound
// record; for graphs the topological structure, tie
// ranks and the bounds.ForGraph record. It runs exactly once per item,
// inside the worker pool, so preparation of one item overlaps
// evaluation of another.
func (st *batchState) prepare() {
	if st.g != nil {
		ties := st.cfg.Ties
		if ties == nil {
			ties = DefaultTies
		}
		if st.prepGraph, st.err = core.PrepareRLS(st.g, ties...); st.err != nil {
			return
		}
		st.bounds, st.err = bounds.ForGraph(st.g)
		return
	}
	ip, err := core.PrepareInstance(st.in)
	if err != nil {
		st.err = err
		return
	}
	if !st.cfg.SkipSBO {
		algC, algM := st.cfg.AlgC, st.cfg.AlgM
		if algC == nil {
			algC = makespan.LPT{}
		}
		if algM == nil {
			algM = makespan.LPT{}
		}
		st.prepSBO = ip.SBO(algC, algM)
	}
	if hasRLS(st.jobs) {
		ties := st.cfg.Ties
		if ties == nil {
			ties = DefaultTies
		}
		if st.prepRLS, st.err = ip.RLS(ties...); st.err != nil {
			return
		}
	}
	st.bounds = ip.Bounds()
}

// executeJob runs job j of this item against the memoized prepared
// state, dispatching on the item kind. scr is the worker's reusable
// scratch, shared across every job the worker executes.
func (st *batchState) executeJob(j job, scr *core.Scratch) Run {
	if st.g == nil {
		return execute(j, st.prepSBO, st.prepRLS, scr)
	}
	run := Run{Algorithm: j.alg, Tie: j.tie, Delta: j.delta}
	run.Value, run.Err = st.prepGraph.Value(j.delta, j.tie, scr)
	return run
}

// run executes one job of a batch against its item's memoized
// prepared state, or skips it when the item's batch was cancelled.
// It is the body shared by per-call workers and resident Pool workers;
// scr is the executing worker's reusable scratch.
func (bj batchJob) run(scr *core.Scratch) {
	st := bj.st
	st.met.jobDequeued()
	select {
	case <-st.ctx.Done():
		// Count the job down but mark the instance skipped so a
		// partial result is never emitted.
		st.skipped.Store(true)
	default:
		if !st.prepareOnce() {
			st.met.memoHit()
		}
		if st.err == nil {
			j := st.jobs[bj.idx]
			t0 := st.met.jobStart()
			run := st.executeJob(j, scr)
			st.met.jobEnd(t0)
			st.runs[j.slot] = run
			if j.twin >= 0 {
				run.Tie = core.TieBottomLevel
				st.runs[j.twin] = run
			}
		}
		if testHookAfterRun != nil {
			testHookAfterRun()
		}
	}
	if st.remaining.Add(-1) == 0 {
		close(st.done)
	}
}

// layout lays out the item's jobs for its current config. Admission
// consults the cache before job generation: a hit that decodes and
// fits the layout (checkLayout) makes the item jobless and its Result
// streams out in the usual order, while a miss — or a rejected entry,
// which c.Reject turns into one — records the key for write-back at
// emission. fp is the config fingerprint of the item's key; "" means
// compute it. A jobless item — cache hit or invalid grid — is done at
// once.
func (st *batchState) layout(c *cache.Cache, fp string) {
	jobs, slots, err := buildJobs(st.cfg, st.g != nil)
	if err != nil {
		st.err = err
		close(st.done)
		return
	}
	if c != nil {
		if fp == "" {
			fp = configFingerprint(st.cfg, st.g != nil)
		}
		st.key = itemKey(st, fp)
		if data, ok := c.Get(st.key); ok {
			res, derr := decodeResult(data)
			if derr == nil {
				derr = checkLayout(res, st.m(), jobs, slots)
			}
			if derr == nil {
				st.cached = res
				close(st.done)
				return
			}
			c.Reject(st.key)
		}
		st.writeBack = true
	}
	st.jobs = jobs
	st.runs = make([]Run, slots)
	st.remaining.Store(int64(len(jobs)))
}

// m is the item's processor count.
func (st *batchState) m() int {
	if st.g != nil {
		return st.g.M
	}
	return st.in.M
}

// assemble builds the Result of the item's finished jobs.
func (st *batchState) assemble() *Result {
	return &Result{Bounds: st.bounds, Runs: st.runs, Front: AssembleFront(st.runs)}
}

// result is the item's BatchResult once its jobs are done: the cached
// Result of a hit, or the computed one — written back through w when
// admission recorded a miss.
func (st *batchState) result(w *entryWriter) BatchResult {
	br := BatchResult{Index: st.index, Err: st.err, Tag: st.tag}
	switch {
	case st.cached != nil:
		br.Result = st.cached
		br.CacheHit = true
	case st.err == nil:
		br.Result = st.assemble()
		if st.writeBack {
			w.put(st.key, br.Result)
		}
	}
	return br
}

// entryWriter writes computed Results back to the cache. The emitter
// owns it, so every entry is encoded into the one buffer it reuses.
type entryWriter struct {
	c   *cache.Cache
	buf []byte
}

// put writes res back at key; an entry that does not encode is simply
// not cached. The cache keeps the slice it is given, so it gets an
// exact-length copy of the buffer.
func (w *entryWriter) put(key cache.Key, res *Result) {
	data, err := appendResult(w.buf[:0], res)
	w.buf = data
	if err != nil {
		return
	}
	w.c.Put(key, append(make([]byte, 0, len(data)), data...))
}

// Planner plans an item's refinement δ-grid from its coarse Result;
// graph marks task-DAG items. An empty grid leaves the item at its
// coarse Result. A planner error is fatal to the batch. refine.Grid is
// the planner of the adaptive pipeline.
type Planner func(res *Result, graph bool) ([]float64, error)

// refinement is the finished coarse phase of an item in a refining
// batch, held until the item is emitted: the item's batchState has
// moved on to its refinement phase, so the coarse Result, its cache
// provenance and its pending write-back ride here.
type refinement struct {
	coarse    *Result
	hit       bool      // coarse Result served from the cache
	key       cache.Key // coarse cache key, written back when writeBack
	writeBack bool
	refined   bool // a refinement phase runs on the item's batchState
}

// refine ends the item's coarse phase and, when plan asks for more δ
// values, starts its refinement phase on the same batchState: the grid
// becomes the planned one (the rest of the effective config carries
// over, so the prepared state stays valid), the refined cache entry is
// looked up, and the refinement jobs and run slots are laid out. The
// caller queues st.jobs afterwards.
func (st *batchState) refine(plan Planner, c *cache.Cache) (*refinement, error) {
	ref := &refinement{coarse: st.cached, hit: st.cached != nil, key: st.key, writeBack: st.writeBack}
	if ref.coarse == nil {
		ref.coarse = st.assemble()
	}
	grid, err := plan(ref.coarse, st.g != nil)
	if err != nil || len(grid) == 0 {
		return ref, err
	}
	ref.refined = true
	st.cfg.Deltas = grid
	st.cached, st.writeBack, st.jobs, st.runs = nil, false, nil, nil
	st.done = make(chan struct{})
	st.layout(c, "")
	if st.g == nil && st.prepRLS == nil && hasRLS(st.jobs) {
		// The coarse jobs ran no RLS, so neither did the preparation;
		// prepare afresh for a grid that does. (refine.Grid never plans
		// such a grid: its points lie inside the coarse grid's span.)
		st.prepared.Store(false)
	}
	return ref, nil
}

// result is the merged BatchResult of a refining batch's item once
// its last phase is done: coarse runs first, refined runs after, the
// front re-assembled over both (AssembleFront prefers the lowest run
// index, so coarse witnesses win ties). Both phases' cache entries are
// written back here, the coarse one first; the merge is a cache hit
// only when every phase was.
func (r *refinement) result(st *batchState, w *entryWriter) BatchResult {
	if r.writeBack {
		w.put(r.key, r.coarse)
	}
	br := BatchResult{Index: st.index, Result: r.coarse, Tag: st.tag, CacheHit: r.hit}
	if !r.refined {
		return br
	}
	fine := st.result(w)
	if fine.Err != nil {
		// The planned grid is valid by construction, so a refinement
		// failure is exceptional; surface it on the item rather than
		// silently emitting the coarse half.
		br.Err = fmt.Errorf("refine: refinement pass for item %d: %w", st.index, fine.Err)
		br.Result, br.CacheHit = nil, false
		return br
	}
	runs := make([]Run, 0, len(r.coarse.Runs)+len(fine.Result.Runs))
	runs = append(runs, r.coarse.Runs...)
	runs = append(runs, fine.Result.Runs...)
	br.Result = &Result{Bounds: r.coarse.Bounds, Runs: runs, Front: AssembleFront(runs)}
	br.CacheHit = r.hit && fine.CacheHit
	return br
}

// pendingItem is an admitted item on its way to the emitter, with the
// record of its finished coarse phase in a refining batch.
type pendingItem struct {
	st  *batchState
	ref *refinement
}

// SweepBatch sweeps every instance of items through one shared worker
// pool and streams each instance's Result — identical to what Sweep
// would return for it — to emit, in instance order, as soon as it
// completes. emit is called sequentially from the calling goroutine;
// returning a non-nil error from it aborts the batch and SweepBatch
// returns that error.
//
// Jobs from different instances interleave freely in the pool, so the
// workers never idle at instance boundaries the way back-to-back Sweep
// calls do, and per-instance state is prepared exactly once, inside
// the pool. At most MaxPending instances are held in memory at a time:
// fronts for thousands of instances stream through in bounded space.
//
// A per-instance failure (invalid instance, invalid override, or an
// item's source error) is delivered as BatchResult.Err and the batch
// continues. On context cancellation the remaining jobs are abandoned
// and SweepBatch returns ctx.Err().
//
// items is consumed from the batch's producer goroutine, concurrently
// with emit: a sequence that shares mutable state with the caller must
// synchronize, or carry per-item context in BatchItem.Tag instead.
func SweepBatch(ctx context.Context, items iter.Seq[BatchItem], cfg BatchConfig, emit func(BatchResult) error) error {
	return sweepBatch(ctx, items, cfg, nil, emit)
}

// SweepBatchRefined is SweepBatch with a second, adaptive phase per
// item. When an item's coarse jobs finish — or its coarse entry hits
// the cache — the batch's feeder goroutine hands its coarse Result to
// plan, and a non-empty grid becomes the item's refinement phase: its
// cache entry is looked up under the refined grid's fingerprint and its
// jobs run in the same pool against the item's already-prepared state.
// The item keeps its admission slot throughout, so memory stays
// O(MaxPending), and its merged Result — coarse runs first, refined
// runs after, the front assembled over both — is emitted in input
// order as soon as both phases are done, while later items are still
// being read. Items plan skips emit their coarse Result unchanged.
//
// Cache entries are keyed per phase (the coarse one under the item's
// base fingerprint, so plain SweepBatch runs of the same grid share
// it) and both are written back when the item is emitted; a merged
// Result is flagged CacheHit only when every phase was served from the
// cache. A refinement-phase failure fails the item; a plan error
// aborts the batch.
func SweepBatchRefined(ctx context.Context, items iter.Seq[BatchItem], cfg BatchConfig, plan Planner, emit func(BatchResult) error) error {
	if plan == nil {
		return fmt.Errorf("engine: nil refinement planner")
	}
	return sweepBatch(ctx, items, cfg, plan, emit)
}

// sweepBatch is SweepBatch, with plan (when non-nil) adding each
// item's refinement phase.
func sweepBatch(ctx context.Context, items iter.Seq[BatchItem], cfg BatchConfig, plan Planner, emit func(BatchResult) error) error {
	if items == nil {
		return fmt.Errorf("engine: nil batch item sequence")
	}
	if emit == nil {
		return fmt.Errorf("engine: nil emit callback")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	// A shared resident pool supplies both the job channel and the
	// effective worker count; otherwise the batch runs its own workers
	// over a private channel, torn down when the batch drains.
	shared := cfg.Pool != nil
	jobCh := make(chan batchJob)
	if shared {
		workers = cfg.Pool.Workers()
		jobCh = cfg.Pool.jobs
	}
	pending := cfg.MaxPending
	if pending <= 0 {
		pending = 2 * workers
	}

	pctx, cancel := context.WithCancel(ctx)
	defer cancel()

	order := make(chan pendingItem, pending)
	admit := make(chan struct{}, pending)

	// queue hands the first n jobs of an item's current phase to the
	// pool; false means the batch was cancelled before every job was
	// handed over. Callers read n before the item leaves their hands:
	// once it has, the feeder may start its next phase.
	queue := func(st *batchState, n int) bool {
		for i := range n {
			st.met.jobQueued()
			select {
			case jobCh <- batchJob{st: st, idx: i}:
			case <-pctx.Done():
				st.met.jobUnqueued()
				return false
			}
		}
		return true
	}

	// In a refining batch the producer hands admitted items to the
	// feeder, which forwards them to the emitter once their coarse
	// phase is done; otherwise they go to the emitter directly. Like
	// order, the channel holds at most the `pending` admitted items.
	admitted := order
	if plan != nil {
		admitted = make(chan pendingItem, pending)
	}

	// Producer: admit instances in input order, lay out their
	// deterministic job lists and feed the shared pool. The admit
	// semaphore (released by the emitter loop below) keeps at most
	// `pending` instances in flight.
	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		defer close(admitted)
		// Items without an Override share the batch config's
		// fingerprint, one per item kind, computed on first use.
		var baseFP [2]string
		fingerprint := func(st *batchState, override bool) string {
			if cfg.Cache == nil || override {
				return ""
			}
			kind := 0
			if st.g != nil {
				kind = 1
			}
			if baseFP[kind] == "" {
				baseFP[kind] = configFingerprint(cfg.Config, st.g != nil)
			}
			return baseFP[kind]
		}
		index := 0
		for item := range items {
			st := &batchState{index: index, in: item.Instance, g: item.Graph, tag: item.Tag, ctx: pctx, met: cfg.Metrics, done: make(chan struct{})}
			index++
			eff := cfg.Config
			if item.Override != nil {
				eff = *item.Override
			}
			eff.Workers = workers
			st.cfg = eff
			switch {
			case item.Err != nil:
				st.err = item.Err
				close(st.done)
			case item.Instance == nil && item.Graph == nil:
				st.err = fmt.Errorf("engine: batch item %d has neither instance nor graph", st.index)
				close(st.done)
			case item.Instance != nil && item.Graph != nil:
				st.err = fmt.Errorf("engine: batch item %d has both instance and graph", st.index)
				close(st.done)
			default:
				st.layout(cfg.Cache, fingerprint(st, item.Override != nil))
			}
			select {
			case admit <- struct{}{}:
			case <-pctx.Done():
				return
			}
			n := len(st.jobs)
			select {
			case admitted <- pendingItem{st: st}:
			case <-pctx.Done():
				return
			}
			if !queue(st, n) {
				return
			}
		}
	}()

	// Feeder (refining batches only): take each admitted item, in
	// order, the moment its coarse phase is done, start its refinement
	// phase and queue the refinement jobs. Items move on to the
	// emitter before their refinement jobs are queued, so the emitter
	// waits on the refinement phase's done channel.
	var feedDone chan struct{}
	var planErr error
	if plan != nil {
		feedDone = make(chan struct{})
		go func() {
			defer close(feedDone)
			defer close(order)
			for p := range admitted {
				st := p.st
				select {
				case <-st.done:
				case <-pctx.Done():
					return
				}
				if st.err == nil && !st.skipped.Load() {
					ref, err := st.refine(plan, cfg.Cache)
					if err != nil {
						planErr = err
						cancel()
						return
					}
					p.ref = ref
				}
				n := 0
				if p.ref != nil && p.ref.refined {
					n = len(st.jobs)
				}
				select {
				case order <- p:
				case <-pctx.Done():
					return
				}
				if !queue(st, n) {
					return
				}
			}
		}()
	}

	var wg sync.WaitGroup
	if !shared {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// One scratch per worker: the solver loops' per-processor
				// and ready-set buffers are reused across every job this
				// worker runs, so a warm batch allocates only results.
				scr := core.NewScratch()
				for bj := range jobCh {
					bj.run(scr)
				}
			}()
		}
	}

	// Emit completed instances in admission order. A state whose jobs
	// were skipped (or never all enqueued) only occurs under
	// cancellation, which ctx.Err() reports below.
	var emitErr error
	entries := &entryWriter{c: cfg.Cache}
emitting:
	for p := range order {
		st := p.st
		select {
		case <-st.done:
		case <-pctx.Done():
			// A completed instance takes precedence over simultaneous
			// cancellation so a fully swept front is never dropped.
			select {
			case <-st.done:
			default:
				break emitting
			}
		}
		if st.skipped.Load() {
			break emitting
		}
		var br BatchResult
		if p.ref != nil {
			br = p.ref.result(st, entries)
		} else {
			br = st.result(entries)
		}
		// Drop the prepared state before emitting: only the Result —
		// now owned by the caller — outlives this iteration.
		st.prepSBO, st.prepRLS, st.prepGraph = nil, nil, nil
		if err := emit(br); err != nil {
			emitErr = err
			break
		}
		<-admit
	}
	// Join the producer and the feeder before returning: a cancelled
	// select unblocks them, and once SweepBatch has returned no
	// goroutine of this batch can still be submitting to a shared pool
	// — the guarantee Pool.Close's quiesce-first contract rests on. A
	// private job channel closes only then, so no send can race its
	// close; the private workers drain it and exit. Jobs of this batch
	// still queued on a shared pool see the cancelled context and skip,
	// counting themselves down without touching emitted state.
	cancel()
	<-prodDone
	if feedDone != nil {
		<-feedDone
	}
	if !shared {
		close(jobCh)
	}
	wg.Wait()
	if emitErr != nil {
		return emitErr
	}
	if planErr != nil {
		return planErr
	}
	return ctx.Err()
}
