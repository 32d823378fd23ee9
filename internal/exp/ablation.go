package exp

import (
	"context"
	"fmt"
	"io"

	"storagesched/internal/bounds"
	"storagesched/internal/core"
	"storagesched/internal/engine"
	"storagesched/internal/gen"
	"storagesched/internal/makespan"
	"storagesched/internal/model"
	"storagesched/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "ABL1",
		Title: "Ablation — RLS tie-break order (the paper's 'arbitrary total ordering')",
		Paper: "any total order preserves the guarantees; orders differ only in constants",
		Run:   runAbl1,
	})
	register(Experiment{
		ID:    "ABL2",
		Title: "Ablation — SBO sub-algorithm pairs (rho1, rho2)",
		Paper: "Properties 1-2 scale with the sub-algorithm ratios; better rho gives better absolute values",
		Run:   runAbl2,
	})
	register(Experiment{
		ID:    "ABL3",
		Title: "Ablation — SBO threshold rule vs whole-schedule baselines",
		Paper: "the per-task threshold beats taking either sub-schedule wholesale on the combined objective",
		Run:   runAbl3,
	})
}

func runAbl1(w io.Writer) error {
	ties := []core.TieBreak{core.TieByID, core.TieSPT, core.TieLPT, core.TieBottomLevel}
	const n, m, delta = 120, 8, 3.0
	seeds := []int64{1, 2, 3, 4, 5}
	fmt.Fprintf(w, "RLS delta=%.1f on DAG families, ~%d nodes, m=%d; mean Cmax/LBc per tie-break\n\n", delta, n, m)
	fmt.Fprintf(w, "%-10s", "family")
	for _, tb := range ties {
		fmt.Fprintf(w, " %10s", tb)
	}
	fmt.Fprintln(w)
	for _, fam := range gen.DAGFamilies() {
		fmt.Fprintf(w, "%-10s", fam.Name)
		for _, tb := range ties {
			acc := stats.NewAcc(false)
			for _, seed := range seeds {
				g := fam.Gen(m, n, seed)
				res, err := core.RLS(g, delta, tb)
				if err != nil {
					return err
				}
				rec, err := bounds.ForGraph(g)
				if err != nil {
					return err
				}
				ratio := float64(res.Cmax) / float64(rec.CmaxLB)
				if ratio > core.RLSCmaxRatio(delta, m)+1e-9 {
					return fmt.Errorf("tie-break %v broke the Corollary 3 bound on %s", tb, fam.Name)
				}
				acc.Add(ratio)
			}
			fmt.Fprintf(w, " %10.4f", acc.Mean())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nall orders stay within the Corollary 3 bound; bottom-level is typically best on deep graphs\n")
	return nil
}

func runAbl2(w io.Writer) error {
	pairs := []struct {
		name string
		alg  makespan.Algorithm
	}{
		{"LS", makespan.ListScheduling{}},
		{"LPT", makespan.LPT{}},
		{"Multifit", makespan.Multifit{}},
	}
	const n, m, delta = 200, 8, 1.0
	seeds := []int64{1, 2, 3, 4, 5, 6}
	fmt.Fprintf(w, "SBO delta=%.0f with each sub-algorithm pair, n=%d m=%d; mean achieved ratios vs lower bounds\n\n", delta, n, m)
	fmt.Fprintf(w, "%-10s %12s %12s %16s\n", "pair", "Cmax/LBc", "Mmax/LBm", "guarantee (2rho)")

	// All pair × seed evaluations run as one batch: each item carries a
	// per-instance Config override selecting its sub-algorithm pair, so
	// the whole ablation shares one worker pool. Items are pair-major,
	// and results stream back in that order.
	items := make([]engine.BatchItem, 0, len(pairs)*len(seeds))
	for _, pr := range pairs {
		cfg := &engine.Config{Deltas: []float64{delta}, AlgC: pr.alg, AlgM: pr.alg, SkipRLS: true}
		for _, seed := range seeds {
			items = append(items, engine.BatchItem{
				Instance: gen.Anticorrelated(n, m, seed),
				Override: cfg,
			})
		}
	}
	seq := func(yield func(engine.BatchItem) bool) {
		for _, it := range items {
			if !yield(it) {
				return
			}
		}
	}
	accC := make([]*stats.Acc, len(pairs))
	accM := make([]*stats.Acc, len(pairs))
	for i := range pairs {
		accC[i] = stats.NewAcc(false)
		accM[i] = stats.NewAcc(false)
	}
	err := engine.SweepBatch(context.Background(), seq, batchConfig(engine.Config{}),
		func(br engine.BatchResult) error {
			if br.Err != nil {
				return br.Err
			}
			pr := pairs[br.Index/len(seeds)]
			run := br.Result.Runs[0]
			if run.Err != nil {
				return run.Err
			}
			v := run.Value
			rec := br.Result.Bounds
			accC[br.Index/len(seeds)].Add(float64(v.Cmax) / float64(rec.CmaxLB))
			accM[br.Index/len(seeds)].Add(float64(v.Mmax) / float64(rec.MmaxLB))
			// Property check relative to the sub-schedules, whose
			// C and M the run does not carry.
			prep, err := core.PrepareSBO(items[br.Index].Instance, pr.alg, pr.alg)
			if err != nil {
				return err
			}
			if float64(v.Cmax) > (1+delta)*float64(prep.C())+1e-9 {
				return fmt.Errorf("pair %s broke Property 1", pr.name)
			}
			if prep.M() > 0 && float64(v.Mmax) > (1+1/delta)*float64(prep.M())+1e-9 {
				return fmt.Errorf("pair %s broke Property 2", pr.name)
			}
			return nil
		})
	if err != nil {
		return err
	}
	for i, pr := range pairs {
		fmt.Fprintf(w, "%-10s %12.4f %12.4f %16.4f\n",
			pr.name, accC[i].Mean(), accM[i].Mean(), 2*pr.alg.Ratio(m))
	}
	fmt.Fprintf(w, "\ntighter sub-algorithms (LPT, Multifit) shift the whole achieved curve down, as Corollary 1 predicts\n")
	return nil
}

func runAbl3(w io.Writer) error {
	alg := makespan.LPT{}
	const delta = 1.0
	score := func(rec bounds.Record, c, mm float64) float64 {
		a := c / float64(rec.CmaxLB)
		b := mm / float64(rec.MmaxLB)
		if a > b {
			return a
		}
		return b
	}
	evalAll := func(inst *model.Instance, rec bounds.Record, m int) (sbo, pi1, pi2 float64, err error) {
		res, err := core.SBO(inst, delta, alg, alg)
		if err != nil {
			return 0, 0, 0, err
		}
		sbo = score(rec, float64(res.Cmax), float64(res.Mmax))
		a1 := alg.Assign(inst.P(), m)
		pi1 = score(rec, float64(inst.Cmax(a1)), float64(inst.Mmax(a1)))
		a2 := alg.Assign(inst.S(), m)
		pi2 = score(rec, float64(inst.Cmax(a2)), float64(inst.Mmax(a2)))
		return sbo, pi1, pi2, nil
	}

	// Regime 1 — adversarial cross-structured instances (the
	// Section 3.1 intuition): wholesale schedules blow up by ~m.
	fmt.Fprintf(w, "regime 1: adversarial cross instances (m long/memory-light + m short/memory-heavy tasks)\n")
	fmt.Fprintf(w, "score = max(Cmax/LBc, Mmax/LBm)\n\n")
	fmt.Fprintf(w, "%4s %12s %12s %12s\n", "m", "SBO", "pi1 only", "pi2 only")
	for _, m := range []int{4, 8, 16} {
		in := gen.AdversarialCross(m, int64(100*m))
		rec := bounds.ForInstance(in)
		sbo, pi1, pi2, err := evalAll(in, rec, m)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%4d %12.4f %12.4f %12.4f\n", m, sbo, pi1, pi2)
		if sbo >= pi1 || sbo >= pi2 {
			return fmt.Errorf("m=%d: threshold rule (%.3f) did not beat wholesale baselines (%.3f, %.3f)", m, sbo, pi1, pi2)
		}
		if pi1 < float64(m)/2 && pi2 < float64(m)/2 {
			return fmt.Errorf("m=%d: adversarial instance failed to punish wholesale schedules", m)
		}
	}

	// Regime 2 — large i.i.d. anticorrelated mixes: balancing either
	// objective self-averages the other, so all three are close. The
	// threshold must never *break* the guarantees there.
	fmt.Fprintf(w, "\nregime 2: i.i.d. anticorrelated, n=200 m=8 (self-averaging; mean over 8 seeds)\n\n")
	accSBO := stats.NewAcc(false)
	accPi1 := stats.NewAcc(false)
	accPi2 := stats.NewAcc(false)
	for seed := int64(1); seed <= 8; seed++ {
		in := gen.Anticorrelated(200, 8, seed)
		rec := bounds.ForInstance(in)
		sbo, pi1, pi2, err := evalAll(in, rec, 8)
		if err != nil {
			return err
		}
		accSBO.Add(sbo)
		accPi1.Add(pi1)
		accPi2.Add(pi2)
	}
	fmt.Fprintf(w, "%-26s %10.4f\n", "SBO per-task threshold", accSBO.Mean())
	fmt.Fprintf(w, "%-26s %10.4f\n", "pi1 wholesale (time only)", accPi1.Mean())
	fmt.Fprintf(w, "%-26s %10.4f\n", "pi2 wholesale (mem only)", accPi2.Mean())
	if accSBO.Mean() > 2+1e-9 {
		return fmt.Errorf("SBO exceeded its (2,2) envelope on the self-averaging regime")
	}
	fmt.Fprintf(w, "\nfinding: the split is worth ~m on structured mixes and costs a few percent when\n")
	fmt.Fprintf(w, "balancing is self-averaging — the guarantee, not the average case, is what it buys\n")
	return nil
}
