package storagesched_test

// Runnable examples for the batch-sweep surface. These execute under
// `go test` and their Output blocks are checked, so they double as
// determinism tests: the printed fronts must come out identical on
// every machine, worker count and scheduling order.

import (
	"context"
	"fmt"

	sched "storagesched"
)

// exampleItems returns three small deterministic instances.
func exampleItems() []*sched.Instance {
	return []*sched.Instance{
		sched.NewInstance(2, []sched.Time{9, 4, 6, 2}, []sched.Mem{3, 8, 1, 5}),
		sched.NewInstance(2, []sched.Time{5, 5, 5, 5}, []sched.Mem{1, 2, 3, 4}),
		sched.NewInstance(3, []sched.Time{7, 1, 4, 6, 2}, []sched.Mem{2, 6, 1, 3, 2}),
	}
}

// ExampleSweepBatch sweeps three instances through one worker pool and
// streams each approximate front in input order.
func ExampleSweepBatch() {
	grid, err := sched.SweepGeometricGrid(0.5, 8, 4)
	if err != nil {
		panic(err)
	}
	err = sched.SweepBatch(context.Background(),
		sched.BatchOf(exampleItems()...),
		sched.BatchConfig{Config: sched.SweepConfig{Deltas: grid}},
		func(br sched.BatchResult) error {
			if br.Err != nil {
				return br.Err
			}
			fmt.Printf("item %d: front %v\n", br.Index, br.Result.FrontValues())
			return nil
		})
	if err != nil {
		panic(err)
	}
	// Output:
	// item 0: front [(Cmax=11, Mmax=9)]
	// item 1: front [(Cmax=10, Mmax=5)]
	// item 2: front [(Cmax=7, Mmax=9) (Cmax=8, Mmax=8) (Cmax=10, Mmax=6)]
}

// ExampleNewSweepCache wires a content-addressed front cache into two
// identical batches: the second is served without recomputation, with
// identical results.
func ExampleNewSweepCache() {
	fcache, err := sched.NewSweepCache(sched.CacheConfig{MemEntries: 16})
	if err != nil {
		panic(err)
	}
	grid, err := sched.SweepGeometricGrid(0.5, 8, 4)
	if err != nil {
		panic(err)
	}
	cfg := sched.BatchConfig{
		Config: sched.SweepConfig{Deltas: grid},
		Cache:  fcache,
	}
	for pass := range 2 {
		hits := 0
		err := sched.SweepBatch(context.Background(),
			sched.BatchOf(exampleItems()...), cfg,
			func(br sched.BatchResult) error {
				if br.Err != nil {
					return br.Err
				}
				if br.CacheHit {
					hits++
				}
				return nil
			})
		if err != nil {
			panic(err)
		}
		fmt.Printf("pass %d: %d of 3 served from cache\n", pass, hits)
	}
	// Output:
	// pass 0: 0 of 3 served from cache
	// pass 1: 3 of 3 served from cache
}

// ExampleSweepBatchAdaptive runs the adaptive sweep: per item, a
// coarse sweep, then targeted refinement where the front's relative
// gap exceeds the threshold.
func ExampleSweepBatchAdaptive() {
	grid, err := sched.SweepGeometricGrid(0.5, 8, 3)
	if err != nil {
		panic(err)
	}
	err = sched.SweepBatchAdaptive(context.Background(),
		sched.BatchOf(exampleItems()...),
		sched.BatchConfig{Config: sched.SweepConfig{Deltas: grid}},
		sched.RefineConfig{Gap: 0.05, MaxPoints: 4},
		func(br sched.BatchResult) error {
			if br.Err != nil {
				return br.Err
			}
			fmt.Printf("item %d: %d runs -> %d front points\n",
				br.Index, len(br.Result.Runs), len(br.Result.Front))
			return nil
		})
	if err != nil {
		panic(err)
	}
	// Output:
	// item 0: 11 runs -> 1 front points
	// item 1: 11 runs -> 1 front points
	// item 2: 17 runs -> 3 front points
}

// ExampleNewSweepPool shares one resident worker pool across several
// batches — the long-running daemon shape — with results identical to
// per-call pools.
func ExampleNewSweepPool() {
	pool := sched.NewSweepPool(2)
	defer pool.Close()
	grid, err := sched.SweepGeometricGrid(0.5, 8, 4)
	if err != nil {
		panic(err)
	}
	for batch := range 2 {
		err := sched.SweepBatch(context.Background(),
			sched.BatchOf(exampleItems()...),
			sched.BatchConfig{Config: sched.SweepConfig{Deltas: grid}, Pool: pool},
			func(br sched.BatchResult) error {
				if br.Err != nil {
					return br.Err
				}
				if br.Index == 0 {
					fmt.Printf("batch %d item 0: front %v\n", batch, br.Result.FrontValues())
				}
				return nil
			})
		if err != nil {
			panic(err)
		}
	}
	// Output:
	// batch 0 item 0: front [(Cmax=11, Mmax=9)]
	// batch 1 item 0: front [(Cmax=11, Mmax=9)]
}
