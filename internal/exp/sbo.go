package exp

import (
	"context"
	"fmt"
	"io"

	"storagesched/internal/core"
	"storagesched/internal/engine"
	"storagesched/internal/gen"
	"storagesched/internal/hardness"
	"storagesched/internal/makespan"
	"storagesched/internal/model"
	"storagesched/internal/pareto"
	"storagesched/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "PROP12",
		Title: "Properties 1-2 — SBO is ((1+d)r1, (1+1/d)r2)-approximate",
		Paper: "Cmax(pi_d) <= (1+d)*Cmax(pi_1) and Mmax(pi_d) <= (1+1/d)*Mmax(pi_2), all instances",
		Run:   runProp12,
	})
	register(Experiment{
		ID:    "COR1",
		Title: "Corollary 1 — SBO with the PTAS is (1+d+eps, 1+1/d+eps); (2,2) always exists",
		Paper: "with exact optima on small instances: ratios within (1+d)(1+eps) and (1+1/d)(1+eps); d=1 gives (2,2)",
		Run:   runCor1,
	})
	register(Experiment{
		ID:    "LEM12",
		Title: "Lemmas 1-2 — Pareto fronts of the Section 4.1/4.2 family match the closed form",
		Paper: "k+1 Pareto points: (1+i/(km), k+(k-i)(m-1)) for i<k and (1+1/m, k+eps) at i=k",
		Run:   runLem12,
	})
	register(Experiment{
		ID:    "LEM3",
		Title: "Lemma 3 — the Section 4.3 instance has exactly the three stated Pareto points",
		Paper: "front {(1,2-eps), (1+eps,1+eps), (2-eps,1)} for eps < 1/2",
		Run:   runLem3,
	})
}

func runProp12(w io.Writer) error {
	deltas := []float64{0.25, 0.5, 1, 2, 4}
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	const n, m = 200, 16
	violated := false
	fmt.Fprintf(w, "families x deltas, n=%d m=%d, %d seeds, sub-algorithm LPT; worst ratios over seeds\n\n", n, m, len(seeds))
	fmt.Fprintf(w, "%-16s %6s  %10s %10s  %10s %10s\n", "family", "delta", "Cmax/C", "(1+d)", "Mmax/M", "(1+1/d)")
	for _, fam := range gen.Families() {
		// One batch sweep per family streams all seeds through the
		// shared worker pool; the sub-schedules π1/π2 are computed once
		// per instance and the runs come back in grid order, so the
		// table is identical to the old serial loop.
		accC := make([]*stats.Acc, len(deltas))
		accM := make([]*stats.Acc, len(deltas))
		for i := range deltas {
			accC[i] = stats.NewAcc(false)
			accM[i] = stats.NewAcc(false)
		}
		ins := make([]*model.Instance, len(seeds))
		for i, seed := range seeds {
			ins[i] = fam.Gen(n, m, seed)
		}
		err := engine.SweepBatch(context.Background(), engine.BatchOf(ins...),
			batchConfig(engine.Config{
				Deltas:  deltas,
				AlgC:    makespan.LPT{},
				AlgM:    makespan.LPT{},
				SkipRLS: true,
			}),
			func(br engine.BatchResult) error {
				if br.Err != nil {
					return br.Err
				}
				// The runs carry values only; C = Cmax(π1) and
				// M = Mmax(π2) come from the same sub-schedules the
				// engine prepared.
				prep, err := core.PrepareSBO(ins[br.Index], makespan.LPT{}, makespan.LPT{})
				if err != nil {
					return err
				}
				for i, run := range br.Result.Runs {
					if run.Err != nil {
						return run.Err
					}
					if run.Delta != deltas[i] {
						return fmt.Errorf("PROP12: run %d has delta %g, want %g", i, run.Delta, deltas[i])
					}
					accC[i].Add(float64(run.Value.Cmax) / float64(prep.C()))
					if prep.M() > 0 {
						accM[i].Add(float64(run.Value.Mmax) / float64(prep.M()))
					}
				}
				return nil
			})
		if err != nil {
			return err
		}
		for i, d := range deltas {
			cb, mb := 1+d, 1+1/d
			okC := accC[i].Max() <= cb+1e-9
			okM := accM[i].Max() <= mb+1e-9
			status := ""
			if !okC || !okM {
				status = "  VIOLATED"
				violated = true
			}
			fmt.Fprintf(w, "%-16s %6.2f  %10.4f %10.4f  %10.4f %10.4f%s\n",
				fam.Name, d, accC[i].Max(), cb, accM[i].Max(), mb, status)
		}
	}
	if violated {
		return fmt.Errorf("a Property 1/2 bound was exceeded")
	}
	fmt.Fprintf(w, "\nshape: the Cmax ratio grows with delta while the Mmax ratio shrinks — the paper's tradeoff\n")
	return nil
}

func runCor1(w io.Writer) error {
	const eps = 0.25
	seeds := []int64{11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	deltas := []float64{0.5, 1, 2}
	violated := false
	fmt.Fprintf(w, "n=10, m=2..3, exact optima via DP, PTAS eps=%.2f; worst ratios over %d seeds\n\n", eps, len(seeds))
	fmt.Fprintf(w, "%6s  %12s %12s  %12s %12s\n", "delta", "Cmax/C*max", "(1+d)(1+e)", "Mmax/M*max", "(1+1/d)(1+e)")
	for _, d := range deltas {
		accC := stats.NewAcc(false)
		accM := stats.NewAcc(false)
		for _, seed := range seeds {
			in := gen.Uniform(10, 2+int(seed)%2, seed)
			optC, _ := makespan.ExactDP{}.Solve(in.P(), in.M)
			optM, _ := makespan.ExactDP{}.Solve(in.S(), in.M)
			res, err := core.SBOWithPTAS(in, d, eps)
			if err != nil {
				return err
			}
			accC.Add(float64(res.Cmax) / float64(optC))
			if optM > 0 {
				accM.Add(float64(res.Mmax) / float64(optM))
			}
		}
		cb := (1 + d) * (1 + eps)
		mb := (1 + 1/d) * (1 + eps)
		if ratioRowQuiet(w, d, accC.Max(), cb, accM.Max(), mb) {
			violated = true
		}
	}
	if violated {
		return fmt.Errorf("a Corollary 1 bound was exceeded")
	}
	fmt.Fprintf(w, "\nat delta=1 both bounds equal 2(1+eps): the (2,2)-existence remark of Corollary 1\n")
	return nil
}

func ratioRowQuiet(w io.Writer, d, mc, cb, mm, mb float64) bool {
	status := ""
	viol := mc > cb+1e-9 || mm > mb+1e-9
	if viol {
		status = "  VIOLATED"
	}
	fmt.Fprintf(w, "%6.2f  %12.4f %12.4f  %12.4f %12.4f%s\n", d, mc, cb, mm, mb, status)
	return viol
}

func runLem12(w io.Writer) error {
	// Enumerable configurations: n = km+m-1 <= 13.
	enumCases := []struct{ m, k int }{{2, 2}, {2, 3}, {2, 4}, {3, 2}, {4, 2}}
	fmt.Fprintf(w, "enumerated fronts vs closed form (scale chosen per k*m):\n\n")
	for _, c := range enumCases {
		scale := int64(c.k*c.m) * 64
		in := hardness.Lemma2Instance(c.m, c.k, scale)
		pts, err := pareto.Front(in)
		if err != nil {
			return err
		}
		want := hardness.Lemma2Front(c.m, c.k, scale)
		match := pareto.SameFront(pareto.Values(pts), want)
		fmt.Fprintf(w, "m=%d k=%d n=%d: %d front points, closed form %d, match=%v\n",
			c.m, c.k, in.N(), len(pts), len(want), match)
		if !match {
			fmt.Fprintf(w, "  got:  %v\n  want: %v\n", pareto.Values(pts), want)
			return fmt.Errorf("Lemma 2 front mismatch at m=%d k=%d", c.m, c.k)
		}
	}
	fmt.Fprintf(w, "\nclosed-form impossibility corners (larger m, k — Figure 3 inputs):\n")
	for _, m := range []int{2, 4, 6} {
		fmt.Fprintf(w, "  m=%d k=8:", m)
		pts := hardness.Lemma2FrontierPoints(m, 8)
		// print the k=8 slice only (last 9 points).
		for _, p := range pts[len(pts)-9:] {
			fmt.Fprintf(w, " (%.3f,%.3f)", p.Rc, p.Rm)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runLem3(w io.Writer) error {
	scale := int64(1) << 12
	for _, frac := range []int64{8, 4, 3} {
		eps := scale / frac
		in := hardness.Lemma3Instance(scale, eps)
		pts, err := pareto.Front(in)
		if err != nil {
			return err
		}
		want := hardness.Lemma3Front(scale, eps)
		match := pareto.SameFront(pareto.Values(pts), want)
		fmt.Fprintf(w, "eps=1/%d: %d front points, match=%v\n", frac, len(pts), match)
		printFrontComparison(w, pareto.Values(pts), want, scale)
		if !match {
			return fmt.Errorf("Lemma 3 front mismatch at eps=1/%d", frac)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "as eps -> 1/2 the middle point approaches (3/2, 3/2): no algorithm beats (3/2, 3/2)\n")
	return nil
}
