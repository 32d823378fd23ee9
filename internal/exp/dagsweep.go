package exp

import (
	"context"
	"fmt"
	"io"
	"sync"

	"storagesched/internal/core"
	"storagesched/internal/dag"
	"storagesched/internal/engine"
	"storagesched/internal/gen"
	"storagesched/internal/model"
)

func init() {
	register(Experiment{
		ID:    "DAGSWEEP",
		Title: "Approximate Pareto fronts on task DAGs — batched δ-sweep of RLS",
		Paper: "the (Lemma 5, d) family swept over d on precedence-constrained graphs; fronts streamed alongside independent instances",
		Run:   runDAGSweep,
	})
}

func runDAGSweep(w io.Writer) error {
	deltas := []float64{2.5, 3, 4, 6, 10}
	seeds := []int64{1, 2}
	const n, m = 60, 6

	// One batch mixes every (family, seed) DAG with an independent
	// instance: graph jobs and SBO/RLS instance jobs interleave in the
	// same worker pool, and fronts stream back in item order.
	type itemInfo struct {
		label string
		g     *dag.Graph
	}
	var items []engine.BatchItem
	for _, fam := range gen.DAGFamilies() {
		for _, seed := range seeds {
			g := fam.Gen(m, n, seed)
			items = append(items, engine.BatchItem{
				Graph: g,
				Tag:   itemInfo{label: fmt.Sprintf("%s/%d", fam.Name, seed), g: g},
			})
		}
	}
	items = append(items, engine.BatchItem{
		Instance: gen.Uniform(n, m, 7),
		Tag:      itemInfo{label: "independent/7"},
	})

	fmt.Fprintf(w, "DAG families x %d seeds (~%d nodes, m=%d) plus one independent instance, one shared pool\n\n",
		len(seeds), n, m)
	fmt.Fprintf(w, "%-12s %6s %6s  %6s  %10s %10s  %9s %7s\n",
		"item", "nodes", "edges", "runs", "front", "Cmax/LB*", "Mmax<=cap", "marked")

	// Runs carry values only, so each graph's witnesses are recomputed
	// for the Lemma 4 and feasibility checks. That work runs in one
	// goroutine per graph as its front streams in, alongside the
	// batch; the table is printed in item order once all are done.
	rows := make([]string, len(items))
	violations := make([]bool, len(items))
	errs := make([]error, len(items))
	var wg sync.WaitGroup
	err := engine.SweepBatch(context.Background(),
		func(yield func(engine.BatchItem) bool) {
			for _, it := range items {
				if !yield(it) {
					return
				}
			}
		},
		batchConfig(engine.Config{Deltas: deltas}),
		func(br engine.BatchResult) error {
			if br.Err != nil {
				return br.Err
			}
			info := br.Tag.(itemInfo)
			res := br.Result

			// The front must be strictly improving in both objectives.
			for i := 1; i < len(res.Front); i++ {
				prev, cur := res.Front[i-1].Value, res.Front[i].Value
				if cur.Cmax <= prev.Cmax || cur.Mmax >= prev.Mmax {
					return fmt.Errorf("%s: front not non-dominated at %d: %v after %v", info.label, i, prev, cur)
				}
			}

			if info.g == nil {
				// The independent rider: SBO runs must be present — the
				// mixed stream really carries both job kinds.
				sbo := 0
				for _, r := range res.Runs {
					if r.Algorithm == engine.AlgSBO {
						sbo++
					}
				}
				if sbo == 0 {
					return fmt.Errorf("%s: no SBO runs in the mixed batch", info.label)
				}
				rows[br.Index] = fmt.Sprintf("%-12s %6d %6s  %6d  %10d %10s  %9s %7s\n",
					info.label, n, "-", len(res.Runs), len(res.Front), "-", "-", "-")
				return nil
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				rows[br.Index], violations[br.Index], errs[br.Index] = checkGraphSweep(info.label, info.g, res)
			}()
			return nil
		})
	wg.Wait()
	if err != nil {
		return err
	}
	violated := false
	for i, row := range rows {
		if errs[i] != nil {
			return errs[i]
		}
		violated = violated || violations[i]
		fmt.Fprint(w, row)
	}
	if violated {
		return fmt.Errorf("a Corollary 2 memory cap was exceeded")
	}
	fmt.Fprintf(w, "\nshape: larger d buys makespan (toward the Lemma 5 floor) at the cost of d*LB memory, per family\n")
	return nil
}

// checkGraphSweep checks the paper's claims on every run of one graph
// item's sweep — Corollary 2, Lemma 4, Lemma 5 and feasibility — by
// recomputing each run's witness against one prepared graph, and
// renders the item's table row. violated reports a Corollary 2 memory
// cap exceeded; err, any other failed claim.
func checkGraphSweep(label string, g *dag.Graph, res *engine.Result) (row string, violated bool, err error) {
	prep, err := core.PrepareRLS(g)
	if err != nil {
		return "", false, err
	}
	preds := g.PredLists()
	worstC := 0.0
	okMem := true
	maxMarked := 0
	for _, r := range res.Runs {
		if r.Err != nil {
			return "", false, fmt.Errorf("%s %s: %w", label, r.Label(), r.Err)
		}
		wit, err := prep.Run(r.Delta, r.Tie)
		if err != nil {
			return "", false, err
		}
		if r.Value != (model.Value{Cmax: wit.Cmax, Mmax: wit.Mmax}) {
			return "", false, fmt.Errorf("%s %s: engine %v, recomputed RLS (%d,%d)",
				label, r.Label(), r.Value, wit.Cmax, wit.Mmax)
		}
		// Corollary 2: the achieved memory respects ⌊δ·LB⌋.
		if wit.Mmax > wit.Cap {
			okMem = false
		}
		// Lemma 4: marked processors never exceed ⌊m/(δ−1)⌋.
		if mc := wit.MarkedCount(); mc > int(float64(g.M)/(r.Delta-1)) {
			return "", false, fmt.Errorf("%s %s: %d marked processors exceed floor(m/(d-1))", label, r.Label(), mc)
		} else if mc > maxMarked {
			maxMarked = mc
		}
		// Lemma 5 for δ > 2 against the critical-path-aware LB.
		ratio := float64(r.Value.Cmax) / float64(res.Bounds.CmaxLB)
		if ratio > worstC {
			worstC = ratio
		}
		if bound := core.RLSCmaxRatio(r.Delta, g.M); r.Delta > 2 && ratio > bound+1e-9 {
			return "", false, fmt.Errorf("%s %s: Cmax ratio %.4f exceeds Lemma 5 bound %.4f", label, r.Label(), ratio, bound)
		}
		if err := wit.Schedule.Validate(preds); err != nil {
			return "", false, fmt.Errorf("%s %s: schedule violates precedence: %w", label, r.Label(), err)
		}
	}
	status := ""
	if !okMem {
		status = "  VIOLATED"
	}
	row = fmt.Sprintf("%-12s %6d %6d  %6d  %10d %10.4f  %9v %7d%s\n",
		label, g.N(), g.NumEdges(), len(res.Runs), len(res.Front), worstC, okMem, maxMarked, status)
	return row, !okMem, nil
}
