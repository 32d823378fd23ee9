package storagesched

// One benchmark per figure and claim of the paper (regenerating the
// corresponding experiment end to end; see DESIGN.md §4 and
// EXPERIMENTS.md), plus microbenchmarks of every algorithm at the
// sizes the experiments use. Run with:
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFIG3 -benchmem   # one figure only

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"storagesched/internal/bounds"
	"storagesched/internal/cache"
	"storagesched/internal/core"
	"storagesched/internal/dag"
	"storagesched/internal/engine"
	"storagesched/internal/exp"
	"storagesched/internal/gen"
	"storagesched/internal/hardness"
	"storagesched/internal/makespan"
	"storagesched/internal/model"
	"storagesched/internal/pareto"
	"storagesched/internal/refine"
	"storagesched/internal/serve"
)

// benchExperiment regenerates one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// Figures.

func BenchmarkFIG1(b *testing.B) { benchExperiment(b, "FIG1") }
func BenchmarkFIG2(b *testing.B) { benchExperiment(b, "FIG2") }
func BenchmarkFIG3(b *testing.B) { benchExperiment(b, "FIG3") }

// Quantitative claims.

func BenchmarkPROP12(b *testing.B) { benchExperiment(b, "PROP12") }
func BenchmarkCOR1(b *testing.B)   { benchExperiment(b, "COR1") }
func BenchmarkLEM12(b *testing.B)  { benchExperiment(b, "LEM12") }
func BenchmarkLEM3(b *testing.B)   { benchExperiment(b, "LEM3") }
func BenchmarkCOR23(b *testing.B)  { benchExperiment(b, "COR23") }
func BenchmarkLEM6(b *testing.B)   { benchExperiment(b, "LEM6") }
func BenchmarkCOR4(b *testing.B)   { benchExperiment(b, "COR4") }
func BenchmarkSEC7(b *testing.B)   { benchExperiment(b, "SEC7") }

// Ablations.

func BenchmarkABL1(b *testing.B) { benchExperiment(b, "ABL1") }
func BenchmarkABL2(b *testing.B) { benchExperiment(b, "ABL2") }
func BenchmarkABL3(b *testing.B) { benchExperiment(b, "ABL3") }

// Extensions (the paper's future-work directions, built out).

func BenchmarkEXT1(b *testing.B) { benchExperiment(b, "EXT1") }
func BenchmarkEXT2(b *testing.B) { benchExperiment(b, "EXT2") }
func BenchmarkEXT3(b *testing.B) { benchExperiment(b, "EXT3") }
func BenchmarkEXT4(b *testing.B) { benchExperiment(b, "EXT4") }

// Sweep engine.

func BenchmarkSWEEP(b *testing.B)    { benchExperiment(b, "SWEEP") }
func BenchmarkDAGSWEEP(b *testing.B) { benchExperiment(b, "DAGSWEEP") }

// benchSweep runs the acceptance workload — a 32-point δ-grid over a
// 200-task instance, SBO plus all four RLS tie-breaks — at a fixed
// worker count. Compare the serial and parallel variants for the
// engine's speedup (parallel is expected ≥ 2× serial on ≥ 4 cores):
//
//	go test -bench 'BenchmarkSweep_(Serial|Parallel)' -benchtime=2s
func benchGrid(b *testing.B, g []float64, err error) []float64 {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchSweep(b *testing.B, workers int) {
	in := gen.Uniform(200, 16, 1)
	grid, err := engine.GeometricGrid(0.25, 8, 32)
	cfg := engine.Config{
		Deltas:  benchGrid(b, grid, err),
		Workers: workers,
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Sweep(ctx, in, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweep_Serial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkSweep_Parallel(b *testing.B) { benchSweep(b, runtime.NumCPU()) }

func BenchmarkSweep_Parallel_n1000(b *testing.B) {
	in := gen.Uniform(1000, 32, 1)
	grid, err := engine.GeometricGrid(0.25, 8, 32)
	cfg := engine.Config{Deltas: benchGrid(b, grid, err)}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Sweep(ctx, in, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Batched sweeps: the acceptance workload is 50 instances through one
// shared pool versus 50 back-to-back Sweep calls at the same worker
// count. A back-to-back Sweep pays a serial preparation phase plus a
// pool tail (idle workers on the last round of jobs) per instance —
// with 10 jobs per instance the pool drains every few rounds — while
// the batch interleaves jobs across instances so neither gap exists.
// The gain is a multi-core effect (≥1.5× expected at 4+ cores); on a
// single-CPU machine both run at the work-sum rate.
//
//	go test -bench 'BenchmarkSweep(Batch|Sequential)' -benchtime=3x

const sweepBatchInstances = 50

func sweepBatchWorkload(b *testing.B) ([]*model.Instance, engine.Config) {
	b.Helper()
	ins := make([]*model.Instance, sweepBatchInstances)
	for i := range ins {
		ins[i] = gen.Uniform(120, 8, int64(i+1))
	}
	// Two grid points ≥ 2: one SBO plus four RLS tie-break jobs each —
	// the small-jobs-per-instance regime batching exists for.
	grid, err := engine.GeometricGrid(2.5, 8, 2)
	return ins, engine.Config{Deltas: benchGrid(b, grid, err), Workers: runtime.NumCPU()}
}

func BenchmarkSweepBatch_n50(b *testing.B) {
	ins, cfg := sweepBatchWorkload(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emitted := 0
		err := engine.SweepBatch(ctx, engine.BatchOf(ins...), engine.BatchConfig{Config: cfg},
			func(br engine.BatchResult) error {
				if br.Err != nil {
					return br.Err
				}
				emitted++
				return nil
			})
		if err != nil {
			b.Fatal(err)
		}
		if emitted != len(ins) {
			b.Fatalf("emitted %d fronts, want %d", emitted, len(ins))
		}
	}
}

// Adaptive batch sweeps: the 50-instance workload through adaptive
// refinement (coarse phase, bend detection, targeted refinement phase,
// merged fronts, all in one batch). Tracked in the BENCH_sweep.json
// artifact next to the fixed-grid batch benchmarks: the adaptive cost
// should stay within a small factor of a fixed-grid sweep of the same
// total run count, since both phases share one pool. first-front-ms is
// the mean time from the call to the first emitted front — how soon a
// streaming consumer sees output.
func BenchmarkSweepBatchAdaptive_n50(b *testing.B) {
	ins := make([]*model.Instance, sweepBatchInstances)
	for i := range ins {
		ins[i] = gen.Uniform(120, 8, int64(i+1))
	}
	// A coarse 4-point grid whose fronts leave refinable gaps; the
	// refinement pass adds up to 8 δ values per instance.
	grid, err := engine.GeometricGrid(0.5, 8, 4)
	cfg := engine.BatchConfig{Config: engine.Config{Deltas: benchGrid(b, grid, err), Workers: runtime.NumCPU()}}
	rcfg := refine.Config{Gap: 0.05, MaxPoints: 8}
	ctx := context.Background()
	var firstFront time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emitted := 0
		t0 := time.Now()
		err := refine.SweepBatchAdaptive(ctx, engine.BatchOf(ins...), cfg, rcfg,
			func(br engine.BatchResult) error {
				if br.Err != nil {
					return br.Err
				}
				if emitted == 0 {
					firstFront += time.Since(t0)
				}
				emitted++
				return nil
			})
		if err != nil {
			b.Fatal(err)
		}
		if emitted != len(ins) {
			b.Fatalf("emitted %d fronts, want %d", emitted, len(ins))
		}
	}
	b.ReportMetric(float64(firstFront.Microseconds())/1e3/float64(b.N), "first-front-ms")
}

// DAG batch sweeps: 30 layered graphs through one shared pool — the
// graph analogue of BenchmarkSweepBatch_n50, tracking the prepared-RLS
// path (memoized topological structure and tie ranks) in the
// BENCH_sweep.json artifact. Matched by the CI `-bench BenchmarkSweep`
// pattern alongside the instance benchmarks.
func BenchmarkSweepBatchDAG_n30(b *testing.B) {
	graphs := make([]*dag.Graph, 30)
	for i := range graphs {
		graphs[i] = gen.LayeredDAG(8, 25, 4, int64(i+1)) // 100 nodes each
	}
	grid, err := engine.GeometricGrid(2.5, 8, 2)
	cfg := engine.Config{Deltas: benchGrid(b, grid, err), Workers: runtime.NumCPU()}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emitted := 0
		err := engine.SweepBatch(ctx, engine.BatchOfGraphs(graphs...), engine.BatchConfig{Config: cfg},
			func(br engine.BatchResult) error {
				if br.Err != nil {
					return br.Err
				}
				emitted++
				return nil
			})
		if err != nil {
			b.Fatal(err)
		}
		if emitted != len(graphs) {
			b.Fatalf("emitted %d fronts, want %d", emitted, len(graphs))
		}
	}
}

// BenchmarkSweepBatchBindingCap is the worst-case rung of the RLS
// cap-free memo: a δ = 2 sweep of AdversarialCross(m, 100m) for m = 2…16,
// instances built so that the memory cap binds. Where it binds, the
// memo's cap-free run is paid on top of the capped one, once per item
// and tie.
func BenchmarkSweepBatchBindingCap(b *testing.B) {
	var ins []*model.Instance
	for m := 2; m <= 16; m++ {
		ins = append(ins, gen.AdversarialCross(m, int64(100*m)))
	}
	cfg := engine.Config{Deltas: []float64{2}, Workers: runtime.NumCPU()}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emitted := 0
		err := engine.SweepBatch(ctx, engine.BatchOf(ins...), engine.BatchConfig{Config: cfg},
			func(br engine.BatchResult) error {
				if br.Err != nil {
					return br.Err
				}
				emitted++
				return nil
			})
		if err != nil {
			b.Fatal(err)
		}
		if emitted != len(ins) {
			b.Fatalf("emitted %d fronts, want %d", emitted, len(ins))
		}
	}
}

// Cached batch sweeps: the same 50-instance workload against a
// content-addressed front cache. Cold pays the full sweep plus hashing
// and write-back; warm serves every front from the cache — on a
// repeated-instance batch (re-running an experiment grid, re-sweeping
// a corpus across machines) the warm path is expected ≥ 5× the cold
// one, and the pair is tracked in the BENCH_sweep.json artifact.
//
//	go test -bench 'BenchmarkSweepBatchCached' -benchtime=3x

func benchSweepBatchCached(b *testing.B, c *cache.Cache) {
	ins, cfg := sweepBatchWorkload(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emitted := 0
		err := engine.SweepBatch(ctx, engine.BatchOf(ins...), engine.BatchConfig{Config: cfg, Cache: c},
			func(br engine.BatchResult) error {
				if br.Err != nil {
					return br.Err
				}
				emitted++
				return nil
			})
		if err != nil {
			b.Fatal(err)
		}
		if emitted != len(ins) {
			b.Fatalf("emitted %d fronts, want %d", emitted, len(ins))
		}
	}
}

func BenchmarkSweepBatchCachedCold_n50(b *testing.B) {
	// A fresh memory-only cache per iteration: every front misses, is
	// computed and written back — the full cold-path overhead.
	ins, cfg := sweepBatchWorkload(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := cache.New(cache.Config{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		err = engine.SweepBatch(ctx, engine.BatchOf(ins...), engine.BatchConfig{Config: cfg, Cache: c},
			func(br engine.BatchResult) error { return br.Err })
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepBatchCachedColdDir_n50 is the cold path over the disk
// tier: a fresh cache over an empty DirStore directory per iteration,
// so every front also pays its DirStore.Put on the emitter — the first
// one opens the writer's segment, each one appends a record.
func BenchmarkSweepBatchCachedColdDir_n50(b *testing.B) {
	ins, cfg := sweepBatchWorkload(b)
	ctx := context.Background()
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := cache.New(cache.Config{Dir: filepath.Join(root, strconv.Itoa(i))})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		err = engine.SweepBatch(ctx, engine.BatchOf(ins...), engine.BatchConfig{Config: cfg, Cache: c},
			func(br engine.BatchResult) error { return br.Err })
		if err != nil {
			b.Fatal(err)
		}
		if st := c.Stats(); st.Puts != int64(len(ins)) || st.WriteErrors != 0 {
			b.Fatalf("cold run stored %d fronts with %d write errors, want %d and 0", st.Puts, st.WriteErrors, len(ins))
		}
	}
}

// storeEntry is one real cache entry: the encoded front of an n=120,
// m=8 instance over the 8-point geometric grid on [0.5, 8] (about
// 1.6 KB), read back from the store a cold sweep wrote it to.
func storeEntry(b *testing.B) []byte {
	b.Helper()
	st, err := cache.NewDirStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	c, err := cache.New(cache.Config{Store: st})
	if err != nil {
		b.Fatal(err)
	}
	grid, err := engine.GeometricGrid(0.5, 8, 8)
	cfg := engine.Config{Deltas: benchGrid(b, grid, err), Workers: 1}
	err = engine.SweepBatch(context.Background(), engine.BatchOf(gen.Uniform(120, 8, 1)),
		engine.BatchConfig{Config: cfg, Cache: c}, func(br engine.BatchResult) error { return br.Err })
	if err != nil {
		b.Fatal(err)
	}
	infos, err := st.List()
	if err != nil || len(infos) != 1 {
		b.Fatalf("the sweep stored %d entries (err=%v), want 1", len(infos), err)
	}
	val, ok := st.Get(infos[0].Key)
	if !ok {
		b.Fatal("the stored entry misses")
	}
	return val
}

// storeKeys returns n distinct cache keys.
func storeKeys(n int) []cache.Key {
	keys := make([]cache.Key, n)
	for i := range keys {
		keys[i] = cache.KeyFor(strconv.AppendInt(nil, int64(i), 10), "bench")
	}
	return keys
}

// BenchmarkDirStorePut_5k is the disk tier's write path alone: 5,000
// puts of a real entry into one fresh store per iteration — the
// writes a cold sweep of 5,000 fronts makes.
func BenchmarkDirStorePut_5k(b *testing.B) {
	val := storeEntry(b)
	keys := storeKeys(5000)
	root := b.TempDir()
	b.SetBytes(int64(len(keys) * len(val)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := cache.NewDirStore(filepath.Join(root, strconv.Itoa(i)))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, k := range keys {
			if err := st.Put(k, val); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDirStoreOpen_50k is the cost of opening a store over a
// directory holding 50,000 entries and serving one hit: NewDirStore
// reads every record header to build the index, so opening grows with
// the store.
func BenchmarkDirStoreOpen_50k(b *testing.B) {
	val := storeEntry(b)
	keys := storeKeys(50000)
	dir := b.TempDir()
	st, err := cache.NewDirStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range keys {
		if err := st.Put(k, val); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := cache.NewDirStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := st.Get(keys[i%len(keys)]); !ok {
			b.Fatal("a stored entry misses after reopening")
		}
	}
}

func BenchmarkSweepBatchCachedWarm_n50(b *testing.B) {
	c, err := cache.New(cache.Config{})
	if err != nil {
		b.Fatal(err)
	}
	// Populate outside the timer, then measure the all-hit path.
	ins, cfg := sweepBatchWorkload(b)
	err = engine.SweepBatch(context.Background(), engine.BatchOf(ins...),
		engine.BatchConfig{Config: cfg, Cache: c},
		func(br engine.BatchResult) error { return br.Err })
	if err != nil {
		b.Fatal(err)
	}
	benchSweepBatchCached(b, c)
}

// The session layer: the same 50-instance workload through
// serve.Session — the code path shared by `schedcli sweepbatch` and
// the schedd daemon — with a resident pool and JSONL encoding to
// io.Discard. Measures the full request cost the daemon pays per sweep
// (decode-free: items arrive materialized) over the raw engine cost of
// BenchmarkSweepBatch_n50; tracked in the BENCH_sweep.json artifact.
func BenchmarkServeSweep_n50(b *testing.B) {
	ins, cfg := sweepBatchWorkload(b)
	var items iter.Seq2[engine.BatchItem, string] = func(yield func(engine.BatchItem, string) bool) {
		for i, in := range ins {
			if !yield(engine.BatchItem{Instance: in}, fmt.Sprintf("bench:%d", i+1)) {
				return
			}
		}
	}
	session := serve.NewSession(serve.SessionConfig{Workers: cfg.Workers, Resident: true})
	defer session.Close()
	spec := serve.SweepSpec{Deltas: cfg.Deltas}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := session.Sweep(ctx, items, spec, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if st.Items != len(ins) || st.Failed != 0 {
			b.Fatalf("emitted %d fronts (%d failed), want %d clean", st.Items, st.Failed, len(ins))
		}
	}
}

// The body-decode rung: serve.DecodeItems drained over one 16-item
// request body shaped like the process benchmark's (three n=120, m=8
// instances — uniform, embedded, anticorrelated — per ~100-node DAG,
// compact JSON, one document per line). It is the decode cost every
// schedd request and `schedcli sweepbatch` stdin run pays before the
// engine sees an item.
//
//	go test -run '^$' -bench BenchmarkDecodeItems_body16 -benchmem -count 5
func BenchmarkDecodeItems_body16(b *testing.B) {
	body := decodeBenchBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for item := range serve.DecodeItems("body", bytes.NewReader(body), nil) {
			if item.Err != nil {
				b.Fatal(item.Err)
			}
			n++
		}
		if n != 16 {
			b.Fatalf("decoded %d items, want 16", n)
		}
	}
}

// decodeBenchBody builds the 16-item body of BenchmarkDecodeItems_body16.
func decodeBenchBody(b *testing.B) []byte {
	b.Helper()
	families := [...]func(n, m int, seed int64) *model.Instance{gen.Uniform, gen.EmbeddedCode, gen.Anticorrelated}
	var body, doc bytes.Buffer
	for i := 0; i < 16; i++ {
		doc.Reset()
		var err error
		seed := int64(i + 1)
		switch {
		case i%8 == 3:
			err = gen.LayeredDAG(8, 25, 4, seed).WriteJSON(&doc)
		case i%8 == 7:
			err = gen.ForkJoin(8, 14, 6, seed).WriteJSON(&doc)
		default:
			err = families[i%3](120, 8, seed).WriteJSON(&doc)
		}
		if err == nil {
			err = json.Compact(&body, doc.Bytes())
		}
		if err != nil {
			b.Fatal(err)
		}
		body.WriteByte('\n')
	}
	return body.Bytes()
}

func BenchmarkSweepSequential_n50(b *testing.B) {
	ins, cfg := sweepBatchWorkload(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range ins {
			if _, err := engine.Sweep(ctx, in, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPrepareInstance_n120 is the engine's per-item preparation
// of a perfbench-shaped instance (n = 120, m = 8), through the calls
// the engine makes: one core.PrepareInstance, whose sort of p feeds the
// SBO sub-schedules, the four RLS tie-break orders and the lower-bound
// record that every cold instance item pays once before its runs.
func BenchmarkPrepareInstance_n120(b *testing.B) {
	in := gen.Uniform(120, 8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ip, err := core.PrepareInstance(in)
		if err != nil {
			b.Fatal(err)
		}
		_ = ip.SBO(makespan.LPT{}, makespan.LPT{})
		if _, err := ip.RLS(engine.DefaultTies...); err != nil {
			b.Fatal(err)
		}
		_ = ip.Bounds()
	}
}

// BenchmarkPrepareGraph_n100 is the engine's per-item preparation of a
// perfbench-shaped DAG (100 nodes, m = 8): the topological state and
// the four tie ranks of core.PrepareRLS, and the bounds.ForGraph
// record.
func BenchmarkPrepareGraph_n100(b *testing.B) {
	g := gen.LayeredDAG(8, 25, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PrepareRLS(g, engine.DefaultTies...); err != nil {
			b.Fatal(err)
		}
		if _, err := bounds.ForGraph(g); err != nil {
			b.Fatal(err)
		}
	}
}

// Algorithm microbenchmarks.

func benchSBO(b *testing.B, n, m int, alg makespan.Algorithm) {
	in := gen.Uniform(n, m, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SBO(in, 1.0, alg, alg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSBO_LS_n100(b *testing.B)   { benchSBO(b, 100, 8, makespan.ListScheduling{}) }
func BenchmarkSBO_LPT_n100(b *testing.B)  { benchSBO(b, 100, 8, makespan.LPT{}) }
func BenchmarkSBO_LPT_n1000(b *testing.B) { benchSBO(b, 1000, 32, makespan.LPT{}) }
func BenchmarkSBO_LPT_n10000(b *testing.B) {
	benchSBO(b, 10000, 64, makespan.LPT{})
}

func benchRLSDag(b *testing.B, n, m int) {
	g := gen.LayeredDAG(m, n/4, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RLS(g, 3.0, core.TieBottomLevel); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRLS_DAG_n100(b *testing.B)  { benchRLSDag(b, 100, 8) }
func BenchmarkRLS_DAG_n400(b *testing.B)  { benchRLSDag(b, 400, 16) }
func BenchmarkRLS_DAG_n1000(b *testing.B) { benchRLSDag(b, 1000, 32) }

func BenchmarkRLS_Independent_n1000(b *testing.B) {
	in := gen.Uniform(1000, 32, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RLSIndependent(in, 3.0, core.TieSPT); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConstrainedIndependent_n200(b *testing.B) {
	in := gen.EmbeddedCode(200, 16, 1)
	lb := MemLB(in.S(), in.M)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.ConstrainedIndependent(in, 2*lb); err != nil {
			b.Fatal(err)
		}
	}
}

func benchMakespan(b *testing.B, alg makespan.Algorithm, n, m int) {
	in := gen.Uniform(n, m, 1)
	sizes := in.P()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Assign(sizes, m)
	}
}

func BenchmarkMakespan_LS_n1000(b *testing.B)       { benchMakespan(b, makespan.ListScheduling{}, 1000, 32) }
func BenchmarkMakespan_LPT_n1000(b *testing.B)      { benchMakespan(b, makespan.LPT{}, 1000, 32) }
func BenchmarkMakespan_Multifit_n1000(b *testing.B) { benchMakespan(b, makespan.Multifit{}, 1000, 32) }
func BenchmarkMakespan_PTAS_eps50_n100(b *testing.B) {
	benchMakespan(b, makespan.PTAS{Epsilon: 0.5}, 100, 8)
}
func BenchmarkMakespan_PTAS_eps25_n40(b *testing.B) {
	benchMakespan(b, makespan.PTAS{Epsilon: 0.25}, 40, 8)
}

func BenchmarkMakespan_ExactDP_n16(b *testing.B) {
	in := gen.Uniform(16, 4, 1)
	sizes := in.P()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		makespan.ExactDP{}.Solve(sizes, 4)
	}
}

func BenchmarkMakespan_BnB_n24(b *testing.B) {
	in := gen.Uniform(24, 4, 1)
	sizes := in.P()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		makespan.BranchAndBound{}.Solve(sizes, 4)
	}
}

func BenchmarkParetoFront_n12(b *testing.B) {
	in := gen.Uniform(12, 3, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pareto.Front(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParetoFront_Lemma2_m3k3(b *testing.B) {
	in := hardness.Lemma2Instance(3, 3, 9*64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pareto.Front(in); err != nil {
			b.Fatal(err)
		}
	}
}
