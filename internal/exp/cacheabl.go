package exp

import (
	"context"
	"fmt"
	"io"
	"reflect"

	"storagesched/internal/cache"
	"storagesched/internal/engine"
	"storagesched/internal/gen"
	"storagesched/internal/shard"
)

func init() {
	register(Experiment{
		ID:    "CACHEABL",
		Title: "Content-addressed front cache — hit rate and front reuse on repeated sweeps",
		Paper: "the experiment families re-sweep identical instances across runs; cached fronts must be reused verbatim (hit rate (r-1)/r over r rounds) and sharded passes must reproduce them",
		Run:   runCacheAbl,
	})
}

// cacheFamily is one named slice of the SWEEP/DAGSWEEP workload mix.
type cacheFamily struct {
	name  string
	items []engine.BatchItem
}

// cacheFamilies rebuilds the deterministic workload: the instance
// families the SWEEP experiment draws from and the graph families of
// DAGSWEEP, at sizes small enough for a self-checking experiment.
func cacheFamilies() []cacheFamily {
	var uniform, embedded, graphs []engine.BatchItem
	for seed := int64(1); seed <= 3; seed++ {
		uniform = append(uniform, engine.BatchItem{Instance: gen.Uniform(24, 3, seed)})
		embedded = append(embedded, engine.BatchItem{Instance: gen.EmbeddedCode(30, 4, seed)})
	}
	graphs = append(graphs,
		engine.BatchItem{Graph: gen.LayeredDAG(3, 8, 3, 1)},
		engine.BatchItem{Graph: gen.ForkJoin(3, 3, 3, 2)},
	)
	return []cacheFamily{
		{name: "uniform(n=24,m=3)", items: uniform},
		{name: "embedded(n=30,m=4)", items: embedded},
		{name: "dag(layered+forkjoin)", items: graphs},
	}
}

func runCacheAbl(w io.Writer) error {
	ctx := context.Background()
	grid, err := engine.GeometricGrid(0.5, 8, 8)
	if err != nil {
		return err
	}
	families := cacheFamilies()
	var items []engine.BatchItem
	famOf := map[int]string{}
	for _, f := range families {
		for _, it := range f.items {
			famOf[len(items)] = f.name
			items = append(items, it)
		}
	}

	c, err := cache.New(cache.Config{})
	if err != nil {
		return err
	}
	cfg := batchConfig(engine.Config{Deltas: grid})
	cfg.Cache = c

	seq := func(yield func(engine.BatchItem) bool) {
		for _, it := range items {
			if !yield(it) {
				return
			}
		}
	}

	// Round 1 populates; rounds 2..r must be served entirely from the
	// cache with byte-for-byte identical fronts.
	const rounds = 3
	fronts := make([][]engine.FrontPoint, len(items))
	hitsByFamily := map[string]int{}
	runsByFamily := map[string]int{}
	for round := 1; round <= rounds; round++ {
		err := engine.SweepBatch(ctx, seq, cfg, func(br engine.BatchResult) error {
			if br.Err != nil {
				return fmt.Errorf("round %d item %d: %w", round, br.Index, br.Err)
			}
			runsByFamily[famOf[br.Index]]++
			if br.CacheHit {
				hitsByFamily[famOf[br.Index]]++
			}
			switch {
			case round == 1 && br.CacheHit:
				return fmt.Errorf("round 1 item %d served from an empty cache", br.Index)
			case round > 1 && !br.CacheHit:
				return fmt.Errorf("round %d item %d missed a warm cache", round, br.Index)
			}
			if round == 1 {
				fronts[br.Index] = br.Result.Front
			} else if !reflect.DeepEqual(fronts[br.Index], br.Result.Front) {
				return fmt.Errorf("round %d item %d: cached front differs from computed one", round, br.Index)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	st := c.Stats()
	fmt.Fprintf(w, "workload: %d items (%d families), %d rounds, %d grid points\n\n",
		len(items), len(families), rounds, len(grid))
	fmt.Fprintf(w, "%-24s %-8s %-8s %s\n", "family", "sweeps", "hits", "hit rate")
	for _, f := range families {
		sw, h := runsByFamily[f.name], hitsByFamily[f.name]
		fmt.Fprintf(w, "%-24s %-8d %-8d %.3f\n", f.name, sw, h, float64(h)/float64(sw))
	}
	fmt.Fprintf(w, "%-24s %-8d %-8d %.3f\n", "total", st.Hits+st.Misses, st.Hits,
		float64(st.Hits)/float64(st.Hits+st.Misses))

	wantHits := int64((rounds - 1) * len(items))
	if st.Hits != wantHits || st.Misses != int64(len(items)) {
		return fmt.Errorf("cache stats hits=%d misses=%d, want hits=%d misses=%d",
			st.Hits, st.Misses, wantHits, len(items))
	}

	// A sharded pass over the warm cache must reproduce the same fronts
	// — the cluster path reuses fronts too. Each shard is its own batch
	// over its slice of the input; local result i is global item
	// local[i].
	plan, err := shard.NewPlan(2, shard.HashAffine, items)
	if err != nil {
		return err
	}
	reused := 0
	for s, local := range plan.Locals() {
		shardSeq := func(yield func(engine.BatchItem) bool) {
			for _, g := range local {
				if !yield(items[g]) {
					return
				}
			}
		}
		err := engine.SweepBatch(ctx, shardSeq, cfg, func(br engine.BatchResult) error {
			g := local[br.Index]
			if br.Err != nil {
				return fmt.Errorf("shard %d item %d: %w", s, g, br.Err)
			}
			if !br.CacheHit {
				return fmt.Errorf("shard %d item %d missed the warm cache", s, g)
			}
			if !reflect.DeepEqual(fronts[g], br.Result.Front) {
				return fmt.Errorf("shard %d item %d: front differs from the unsharded one", s, g)
			}
			reused++
			return nil
		})
		if err != nil {
			return err
		}
	}
	if reused != len(items) {
		return fmt.Errorf("sharded pass covered %d of %d items", reused, len(items))
	}
	fmt.Fprintf(w, "\nsharded pass (K=2, hash-affine): %d items reused from cache\n", reused)
	fmt.Fprintf(w, "reuse: every warm front byte-identical to its computed original across %d rounds\n", rounds)
	return nil
}
