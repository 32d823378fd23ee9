package exp

import (
	"context"
	"errors"
	"fmt"
	"io"

	"storagesched/internal/bounds"
	"storagesched/internal/core"
	"storagesched/internal/engine"
	"storagesched/internal/gen"
	"storagesched/internal/model"
	"storagesched/internal/pareto"
	"storagesched/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "COR23",
		Title: "Lemmas 4-5, Corollaries 2-3 — RLS is (2+1/(d-2)-(d-1)/(m(d-2)), d) on DAGs",
		Paper: "Mmax <= d*LB; marked processors <= floor(m/(d-1)); Cmax within the Lemma 5 bound",
		Run:   runCor23,
	})
	register(Experiment{
		ID:    "LEM6",
		Title: "Lemma 6 — SPT on rho*m processors degrades SumCi by at most 1/rho + 1",
		Paper: "SumCi(pi2) <= (1/rho + 1) * SumCi(pi1) for SPT schedules on m and rho*m processors",
		Run:   runLem6,
	})
	register(Experiment{
		ID:    "COR4",
		Title: "Corollary 4 — tri-objective RLS-SPT on independent tasks",
		Paper: "(Cmax, Mmax, SumCi) within (2+1/(d-2)-(d-1)/(m(d-2)), d, 2+1/(d-2))",
		Run:   runCor4,
	})
	register(Experiment{
		ID:    "SEC7",
		Title: "Section 7 — solving 'min Cmax s.t. Mmax <= M' by parameter search",
		Paper: "budget < LB infeasible; budget >= 2LB always solved; quality vs the exact constrained optimum",
		Run:   runSec7,
	})
}

func runCor23(w io.Writer) error {
	deltas := []float64{2.5, 3, 4, 6, 8}
	seeds := []int64{1, 2, 3, 4, 5}
	const n, m = 120, 8
	violated := false
	fmt.Fprintf(w, "DAG families x deltas, ~%d nodes, m=%d, %d seeds, tie-break bottom-level; worst ratios\n\n", n, m, len(seeds))
	fmt.Fprintf(w, "%-10s %6s  %9s %6s  %9s %9s  %7s %7s\n",
		"family", "delta", "Mmax/LB", "d", "Cmax/LBc", "Lemma5", "marked", "floor")
	for _, fam := range gen.DAGFamilies() {
		for _, d := range deltas {
			accM := stats.NewAcc(false)
			accC := stats.NewAcc(false)
			maxMarked := 0
			for _, seed := range seeds {
				g := fam.Gen(m, n, seed)
				res, err := core.RLS(g, d, core.TieBottomLevel)
				if err != nil {
					return err
				}
				rec, err := bounds.ForGraph(g)
				if err != nil {
					return err
				}
				accM.Add(float64(res.Mmax) / float64(rec.MmaxLB))
				cLB := float64(g.TotalWork()) / float64(m)
				if cp := float64(rec.CriticalPath); cp > cLB {
					cLB = cp
				}
				accC.Add(float64(res.Cmax) / cLB)
				if mc := res.MarkedCount(); mc > maxMarked {
					maxMarked = mc
				}
			}
			floorMark := int(float64(m) / (d - 1))
			cBound := core.RLSCmaxRatio(d, m)
			okM := accM.Max() <= d+1e-9
			okC := accC.Max() <= cBound+1e-9
			okK := maxMarked <= floorMark
			status := ""
			if !okM || !okC || !okK {
				status = "  VIOLATED"
				violated = true
			}
			fmt.Fprintf(w, "%-10s %6.2f  %9.4f %6.2f  %9.4f %9.4f  %7d %7d%s\n",
				fam.Name, d, accM.Max(), d, accC.Max(), cBound, maxMarked, floorMark, status)
		}
	}
	if violated {
		return fmt.Errorf("a Corollary 2/3 or Lemma 4 bound was exceeded")
	}
	fmt.Fprintf(w, "\nshape: the Cmax bound falls toward 2-1/m as delta grows; the memory bound rises as delta\n")
	return nil
}

func runLem6(w io.Writer) error {
	const n, m = 100, 12
	seeds := []int64{3, 4, 5, 6}
	violated := false
	fmt.Fprintf(w, "SPT schedules of %d uniform tasks on q vs m=%d processors; worst over %d seeds\n\n", n, m, len(seeds))
	fmt.Fprintf(w, "%4s %8s  %14s %10s\n", "q", "rho", "SumCi(q)/(m)", "1/rho+1")
	for q := 1; q <= m; q++ {
		acc := stats.NewAcc(false)
		for _, seed := range seeds {
			in := gen.Uniform(n, m, seed)
			full := bounds.SumCiSPT(in.P(), m)
			restricted := bounds.SumCiSPT(in.P(), q)
			acc.Add(float64(restricted) / float64(full))
		}
		rho := float64(q) / float64(m)
		bound := 1/rho + 1
		status := ""
		if acc.Max() > bound+1e-9 {
			status = "  VIOLATED"
			violated = true
		}
		fmt.Fprintf(w, "%4d %8.3f  %14.4f %10.4f%s\n", q, rho, acc.Max(), bound, status)
	}
	if violated {
		return fmt.Errorf("a Lemma 6 bound was exceeded")
	}
	return nil
}

func runCor4(w io.Writer) error {
	deltas := []float64{2.5, 3, 4, 6, 8}
	seeds := []int64{1, 2, 3, 4, 5, 6}
	const n, m = 150, 8
	violated := false
	fmt.Fprintf(w, "independent families x deltas, n=%d m=%d, SPT tie-break; worst ratios over %d seeds\n\n", n, m, len(seeds))
	fmt.Fprintf(w, "%-16s %6s  %9s %9s  %9s %6s  %9s %9s\n",
		"family", "delta", "Cmax/LB", "bound", "Mmax/LB", "d", "SumCi/opt", "2+1/(d-2)")
	for _, fam := range gen.Families() {
		// One batch sweep per family streams all seeds through the
		// shared pool with the SPT tie-break; the lower-bound record is
		// memoized by the engine, so each instance is bounded once
		// instead of once per δ. Runs come back in grid order, so the
		// table is identical to the old serial loop.
		accC := make([]*stats.Acc, len(deltas))
		accM := make([]*stats.Acc, len(deltas))
		accS := make([]*stats.Acc, len(deltas))
		for i := range deltas {
			accC[i] = stats.NewAcc(false)
			accM[i] = stats.NewAcc(false)
			accS[i] = stats.NewAcc(false)
		}
		ins := make([]*model.Instance, len(seeds))
		for i, seed := range seeds {
			ins[i] = fam.Gen(n, m, seed)
		}
		err := engine.SweepBatch(context.Background(), engine.BatchOf(ins...),
			batchConfig(engine.Config{
				Deltas:  deltas,
				Ties:    []core.TieBreak{core.TieSPT},
				SkipSBO: true,
			}),
			func(br engine.BatchResult) error {
				if br.Err != nil {
					return br.Err
				}
				rec := br.Result.Bounds
				for i, run := range br.Result.Runs {
					if run.Err != nil {
						return run.Err
					}
					// The engine drops RLS jobs for δ < 2, so a grid
					// edit could silently misalign runs and
					// accumulators.
					if run.Delta != deltas[i] {
						return fmt.Errorf("COR4: run %d has delta %g, want %g (all grid deltas must be >= 2)",
							i, run.Delta, deltas[i])
					}
					// Runs carry (Cmax, Mmax) only; ΣCi comes from
					// the run's witness, recomputed.
					res, err := core.RLSIndependent(ins[br.Index], run.Delta, run.Tie)
					if err != nil {
						return err
					}
					accC[i].Add(float64(run.Value.Cmax) / float64(rec.CmaxLB))
					accM[i].Add(float64(run.Value.Mmax) / float64(rec.MmaxLB))
					accS[i].Add(float64(res.SumCi) / float64(rec.SumCiLB))
				}
				return nil
			})
		if err != nil {
			return err
		}
		for i, d := range deltas {
			cBound := core.RLSCmaxRatio(d, m)
			sBound := core.RLSSumCiRatio(d)
			okC := accC[i].Max() <= cBound+1e-9
			okM := accM[i].Max() <= d+1e-9
			okS := accS[i].Max() <= sBound+1e-9
			status := ""
			if !okC || !okM || !okS {
				status = "  VIOLATED"
				violated = true
			}
			fmt.Fprintf(w, "%-16s %6.2f  %9.4f %9.4f  %9.4f %6.2f  %9.4f %9.4f%s\n",
				fam.Name, d, accC[i].Max(), cBound, accM[i].Max(), d, accS[i].Max(), sBound, status)
		}
	}
	if violated {
		return fmt.Errorf("a Corollary 4 bound was exceeded")
	}
	return nil
}

func runSec7(w io.Writer) error {
	// Small instances: compare against the exact constrained optimum
	// obtained from the full Pareto front.
	seeds := []int64{21, 22, 23, 24, 25, 26, 27, 28}
	fmt.Fprintf(w, "small instances (n=10, m=2): solver vs exact constrained optimum over a budget sweep\n\n")
	fmt.Fprintf(w, "%-6s %-10s %-12s %-12s %-8s\n", "seed", "budget", "solver Cmax", "opt Cmax", "ratio")
	worst := 0.0
	var solved, uncertified int
	for _, seed := range seeds {
		in := gen.Uniform(10, 2, seed)
		pts, err := pareto.Front(in)
		if err != nil {
			return err
		}
		lb := bounds.MemLB(in.S(), in.M)
		total := in.TotalMem()
		for _, budget := range []model.Mem{lb, (lb + total) / 2, 2 * lb, total} {
			if budget > total {
				budget = total
			}
			optC := exactConstrainedCmax(pts, budget)
			a, v, err := core.ConstrainedIndependent(in, budget)
			switch {
			case errors.Is(err, core.ErrNotCertified):
				uncertified++
				fmt.Fprintf(w, "%-6d %-10d %-12s %-12d %-8s\n", seed, budget, "uncert.", optC, "-")
				continue
			case err != nil:
				return err
			}
			if verr := in.ValidateAssignment(a); verr != nil {
				return verr
			}
			if v.Mmax > budget {
				return fmt.Errorf("seed %d budget %d: returned Mmax %d exceeds budget", seed, budget, v.Mmax)
			}
			solved++
			ratio := float64(v.Cmax) / float64(optC)
			if ratio > worst {
				worst = ratio
			}
			fmt.Fprintf(w, "%-6d %-10d %-12d %-12d %-8.4f\n", seed, budget, v.Cmax, optC, ratio)
		}
	}
	fmt.Fprintf(w, "\nsolved=%d uncertified=%d worst Cmax ratio vs exact constrained optimum = %.4f\n", solved, uncertified, worst)
	// The paper gives no uniform guarantee here (the constrained
	// problem is inapproximable in general); sanity-check that the
	// measured ratio stays within the SBO/RLS envelope on these
	// instances and that every >= 2LB budget was solved.
	if worst > 3 {
		return fmt.Errorf("constrained solver ratio %.3f unexpectedly bad", worst)
	}
	// Large-instance feasibility demonstration.
	fmt.Fprintf(w, "\nlarge instance (n=400, m=16): budget sweep feasibility\n")
	in := gen.EmbeddedCode(400, 16, 99)
	lb := bounds.MemLB(in.S(), in.M)
	for _, mult := range []float64{1.0, 1.2, 1.5, 2.0, 3.0} {
		budget := model.Mem(float64(lb) * mult)
		_, v, err := core.ConstrainedIndependent(in, budget)
		switch {
		case errors.Is(err, core.ErrNotCertified):
			fmt.Fprintf(w, "  budget=%.1fxLB: not certified\n", mult)
			if mult >= 2 {
				return fmt.Errorf("budget %.1fxLB >= 2LB must always be solved", mult)
			}
		case err != nil:
			return err
		default:
			fmt.Fprintf(w, "  budget=%.1fxLB: Cmax=%d Mmax=%d (Cmax/LBc=%.4f)\n",
				mult, v.Cmax, v.Mmax, float64(v.Cmax)/float64(bounds.ForInstance(in).CmaxLB))
		}
	}
	return nil
}

// exactConstrainedCmax reads the optimal constrained makespan off the
// exact Pareto front.
func exactConstrainedCmax(pts []pareto.Point, budget model.Mem) model.Time {
	best := model.Time(-1)
	for _, p := range pts {
		if p.Value.Mmax <= budget && (best == -1 || p.Value.Cmax < best) {
			best = p.Value.Cmax
		}
	}
	return best
}
