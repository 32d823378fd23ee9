package refine

import (
	"context"
	"fmt"
	"iter"

	"storagesched/internal/engine"
)

// SweepBatchAdaptive sweeps items through the batch engine in two
// phases per item: a coarse phase at the configured grid, then a
// refinement phase at the grid Grid plans from the item's coarse front
// — the δ-intervals where it bends. Each item's coarse and refined
// runs merge into one Result — coarse runs first, refined runs after,
// the front re-assembled over both — and the merged BatchResults are
// emitted in input order, exactly one per item, like SweepBatch's.
//
// Both phases run inside one engine.SweepBatchRefined batch: an item's
// refinement jobs are queued the moment its coarse phase is done,
// against the state the coarse phase prepared (each item is prepared
// once), and its merged front streams out while later items are still
// being read. Memory is O(MaxPending), as for SweepBatch.
//
// The phases share cfg's pool parameters and cache. Cache entries are
// keyed per phase: the coarse phase uses the item's base fingerprint —
// so warm entries written by plain SweepBatch runs of the same grid
// still hit, and vice versa — and the refinement phase the
// fingerprint of its planned grid. Both entries are written when the
// item is emitted. A merged result is flagged CacheHit only when every
// phase that ran for the item was served from the cache. Fatal errors
// (cancellation, an emit error) abort as in SweepBatch; per-item
// failures ride on BatchResult.Err and refinement simply skips them.
func SweepBatchAdaptive(ctx context.Context, items iter.Seq[engine.BatchItem], cfg engine.BatchConfig, rcfg Config, emit func(engine.BatchResult) error) error {
	if items == nil {
		return fmt.Errorf("refine: nil batch item sequence")
	}
	if emit == nil {
		return fmt.Errorf("refine: nil emit callback")
	}
	rcfg, err := rcfg.Normalized()
	if err != nil {
		return err
	}
	plan := func(res *engine.Result, graph bool) ([]float64, error) {
		return Grid(res, graph, rcfg)
	}
	return engine.SweepBatchRefined(ctx, items, cfg, plan, emit)
}
