package exp

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"storagesched/internal/bounds"
	"storagesched/internal/condgraph"
	"storagesched/internal/core"
	"storagesched/internal/engine"
	"storagesched/internal/gen"
	"storagesched/internal/model"
	"storagesched/internal/pareto"
	"storagesched/internal/sim"
	"storagesched/internal/stats"
	"storagesched/internal/uniform"
)

// Extension experiments: the paper's "future works" directions built
// out and measured. They are not claims of the paper; their checks
// enforce the guarantees we derived (documented inline) plus basic
// sanity of the measurements.

func init() {
	register(Experiment{
		ID:    "EXT1",
		Title: "Extension — approximate Pareto-set generation by delta sweep (Section 6 remark)",
		Paper: "\"all algorithms we provide can be tuned using the delta parameter\"; quality vs exact fronts",
		Run:   runExt1,
	})
	register(Experiment{
		ID:    "EXT2",
		Title: "Extension — uniform (related) machines (future work: non-identical processors)",
		Paper: "derived guarantee: Cmax <= (1+d)*C and Mmax <= (1+Q/d)*M with Q the speed spread",
		Run:   runExt2,
	})
	register(Experiment{
		ID:    "EXT3",
		Title: "Extension — conditional task graphs (future work: conditional task graphs)",
		Paper: "static-conservative RLS bounds every scenario; measure its gap to clairvoyant per-scenario RLS",
		Run:   runExt3,
	})
	register(Experiment{
		ID:    "EXT4",
		Title: "Extension — online scheduling with release dates (the SoC online-optimization setting)",
		Paper: "cap-aware competitive envelope Cmax <= maxR + W(d-1)/(m(d-2)) + pmax; memory cap holds online",
		Run:   runExt4,
	})
}

// sweepFront runs one engine sweep of in and returns its front values.
// With probes > 0 it then asks the Section 7 search
// (core.ConstrainedIndependent) for the best Cmax under that many
// memory budgets spaced evenly between the front's Mmax extremes, and
// keeps the non-dominated union. Infeasible or uncertified probes are
// skipped.
func sweepFront(in *model.Instance, cfg engine.Config, probes int) ([]model.Value, error) {
	cfg.Workers = sweepWorkers
	res, err := engine.Sweep(context.Background(), in, cfg)
	if err != nil {
		return nil, err
	}
	vals := res.FrontValues()
	if probes <= 0 || len(vals) == 0 {
		return vals, nil
	}
	// The front is sorted by Cmax, hence by decreasing Mmax.
	lo, hi := vals[len(vals)-1].Mmax, vals[0].Mmax
	for i := 1; i <= probes; i++ {
		budget := lo + model.Mem(float64(i)/float64(probes+1)*float64(hi-lo))
		if _, v, err := core.ConstrainedIndependent(in, budget); err == nil {
			vals = append(vals, v)
		}
	}
	return pareto.FilterDominated(vals), nil
}

func runExt1(w io.Writer) error {
	rng := rand.New(rand.NewSource(5))
	// 33 geometric points over [1/32, 32]: ratio 2^(5/16) per step.
	grid, err := engine.GeometricGrid(1.0/32, 32, 33)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "small instances (n<=10): epsilon-indicator of the generated front vs the exact front\n\n")
	fmt.Fprintf(w, "%-6s %6s %8s %10s %12s\n", "seed", "n", "exact", "generated", "epsilon")
	accEps := stats.NewAcc(true)
	for trial := 0; trial < 10; trial++ {
		n := 6 + rng.Intn(5)
		m := 2 + rng.Intn(2)
		p := make([]model.Time, n)
		s := make([]model.Mem, n)
		for i := 0; i < n; i++ {
			p[i] = rng.Int63n(40) + 1
			s[i] = rng.Int63n(40) + 1
		}
		in := model.NewInstance(m, p, s)
		exact, err := pareto.Front(in)
		if err != nil {
			return err
		}
		approx, err := sweepFront(in, engine.Config{Deltas: grid}, 6)
		if err != nil {
			return err
		}
		eps := pareto.EpsilonIndicator(approx, pareto.Values(exact))
		accEps.Add(eps)
		fmt.Fprintf(w, "%-6d %6d %8d %10d %12.4f\n", trial, n, len(exact), len(approx), eps)
	}
	fmt.Fprintf(w, "\nepsilon indicator: mean %.4f, max %.4f (0 = generated set covers the exact front)\n",
		accEps.Mean(), accEps.Max())
	// The LPT-based sweep guarantee implies the generated set is a
	// rho(1+grid)-approximate Pareto set; 0.75 is a loose cap on the
	// measured indicator.
	if accEps.Max() > 0.75 {
		return fmt.Errorf("epsilon indicator %.3f exceeds the sweep guarantee envelope", accEps.Max())
	}

	// Hypervolume comparison of sweep configurations on a larger
	// instance (reference = 3x lower bounds).
	if grid, err = engine.GeometricGrid(1.0/32, 32, 25); err != nil {
		return err
	}
	in := gen.Anticorrelated(80, 8, 11)
	rec := bounds.ForInstance(in)
	refC, refM := 3*rec.CmaxLB, 3*rec.MmaxLB
	fmt.Fprintf(w, "\nhypervolume on anticorrelated n=80 m=8 (higher = better front):\n")
	for _, c := range []struct {
		name   string
		cfg    engine.Config
		probes int
	}{
		{"SBO only", engine.Config{Deltas: grid, SkipRLS: true}, 0},
		{"SBO+RLS", engine.Config{Deltas: grid}, 0},
		{"SBO+RLS+constrained", engine.Config{Deltas: grid}, 8},
	} {
		front, err := sweepFront(in, c.cfg, c.probes)
		if err != nil {
			return err
		}
		hv := pareto.Hypervolume(front, refC, refM)
		fmt.Fprintf(w, "  %-22s %3d points  hypervolume %.3e\n", c.name, len(front), hv)
	}
	return nil
}

func runExt2(w io.Writer) error {
	rng := rand.New(rand.NewSource(21))
	deltas := []float64{0.5, 1, 2, 4}
	spreads := []int64{1, 2, 4, 8}
	fmt.Fprintf(w, "SBOUniform on n=120 tasks, m=8 machines; worst ratios over 6 seeds per cell\n\n")
	fmt.Fprintf(w, "%6s %6s  %10s %10s  %10s %10s\n", "Q", "delta", "Cmax/C", "(1+d)", "Mmax/M", "(1+Q/d)")
	violated := false
	for _, q := range spreads {
		speeds := make(uniform.Speeds, 8)
		for j := range speeds {
			if j%2 == 0 {
				speeds[j] = 1
			} else {
				speeds[j] = q
			}
		}
		for _, d := range deltas {
			accC := stats.NewAcc(false)
			accM := stats.NewAcc(false)
			for seed := int64(0); seed < 6; seed++ {
				in := gen.Uniform(120, 8, rng.Int63())
				_ = seed
				res, err := uniform.SBOUniform(in, speeds, d)
				if err != nil {
					return err
				}
				accC.Add(res.Cmax.Float() / res.C.Float())
				if res.M > 0 {
					accM.Add(float64(res.Mmax) / float64(res.M))
				}
			}
			cb := 1 + d
			mb := 1 + speeds.Spread()/d
			status := ""
			if accC.Max() > cb+1e-9 || accM.Max() > mb+1e-9 {
				status = "  VIOLATED"
				violated = true
			}
			fmt.Fprintf(w, "%6d %6.2f  %10.4f %10.4f  %10.4f %10.4f%s\n",
				q, d, accC.Max(), cb, accM.Max(), mb, status)
		}
	}
	if violated {
		return fmt.Errorf("a derived uniform-machine bound was exceeded")
	}
	fmt.Fprintf(w, "\nRLSUniform memory guarantee (Mmax <= d*LB holds unchanged):\n")
	for _, q := range spreads {
		speeds := make(uniform.Speeds, 8)
		for j := range speeds {
			speeds[j] = 1 + int64(j)%q
		}
		in := gen.EmbeddedCode(120, 8, 3)
		res, err := uniform.RLSUniform(in, speeds, 3)
		if err != nil {
			return err
		}
		if res.Mmax > res.Cap {
			return fmt.Errorf("RLSUniform broke the memory cap at Q=%d", q)
		}
		lbRat := uniform.CmaxLB(in.P(), speeds)
		fmt.Fprintf(w, "  Q<=%d: Cmax=%.2f (%.4fxLB) Mmax=%d (cap %d)\n",
			q, res.Cmax.Float(), res.Cmax.Float()/lbRat.Float(), res.Mmax, res.Cap)
	}
	fmt.Fprintf(w, "\nshape: the memory bound degrades linearly in the speed spread Q — scheduling fast\n")
	fmt.Fprintf(w, "machines first concentrates storage; the identical-machine case (Q=1) recovers Property 2\n")
	return nil
}

func runExt3(w io.Writer) error {
	const delta = 3.0
	fmt.Fprintf(w, "fork-join pipelines with branch nodes; static-conservative vs clairvoyant-dynamic RLS (delta=%.0f)\n\n", delta)
	fmt.Fprintf(w, "%-8s %10s %12s %12s %12s %10s\n",
		"branchP", "active%", "static E[C]", "dynamic E[C]", "gap", "staticMmax")
	for _, pTake := range []float64{0.25, 0.5, 0.75} {
		g := gen.ForkJoin(4, 6, 4, 9)
		cg := condgraph.New(g)
		// Turn every fork node into a branch over its first two
		// successor filters: with prob pTake take filter A (plus the
		// rest), else filter B (plus the rest). Here: alternative 1 =
		// {succ0}, alternative 2 = {succ1}; remaining successors stay
		// unconditional.
		branches := 0
		for v := 0; v < g.N() && branches < 3; v++ {
			succs := g.Succs(v)
			if len(succs) >= 3 {
				if err := cg.AddBranch(v, [][]int{{succs[0]}, {succs[1]}}, []float64{pTake, 1 - pTake}); err != nil {
					return err
				}
				branches++
			}
		}
		if branches == 0 {
			return fmt.Errorf("no branch sites found in the pipeline")
		}
		res, err := condgraph.MonteCarlo(cg, delta, 300, 17)
		if err != nil {
			return err
		}
		if res.StaticMeanCmax > float64(res.StaticFullCmax)+1e-9 {
			return fmt.Errorf("scenario execution exceeded the full-schedule makespan")
		}
		gap := res.StaticMeanCmax / res.DynamicMeanCmax
		fmt.Fprintf(w, "%-8.2f %9.1f%% %12.1f %12.1f %12.4f %10d\n",
			pTake, 100*res.MeanActive, res.StaticMeanCmax, res.DynamicMeanCmax, gap, res.StaticFullMmax)
	}
	fmt.Fprintf(w, "\nstatic-conservative keeps the unconditional guarantee (its full-graph Mmax bounds every\n")
	fmt.Fprintf(w, "scenario); clairvoyance buys a modest makespan factor — the price of branch uncertainty\n")
	return nil
}

func runExt4(w io.Writer) error {
	rng := rand.New(rand.NewSource(33))
	const delta = 3.0
	fmt.Fprintf(w, "online RLS with release dates vs clairvoyant offline RLS; memory cap delta=%.0f*LB\n\n", delta)
	fmt.Fprintf(w, "%-10s %10s %12s %12s %10s\n", "spread", "maxR", "online Cmax", "offline Cmax", "ratio")
	accRatio := stats.NewAcc(false)
	for _, releaseSpread := range []int64{0, 100, 1000} {
		for seed := 0; seed < 4; seed++ {
			in := gen.Uniform(80, 8, rng.Int63())
			lb := bounds.MemLB(in.S(), in.M)
			cap := model.Mem(delta * float64(lb))
			tasks := make([]sim.OnlineTask, in.N())
			var work, maxP model.Time
			for i, task := range in.Tasks {
				rel := model.Time(0)
				if releaseSpread > 0 {
					rel = rng.Int63n(releaseSpread)
				}
				tasks[i] = sim.OnlineTask{P: task.P, S: task.S, Release: rel}
				work += task.P
				if task.P > maxP {
					maxP = task.P
				}
			}
			on, err := sim.OnlineRLS(tasks, in.M, cap)
			if err != nil {
				return err
			}
			if on.Mmax > cap {
				return fmt.Errorf("online run broke the memory cap")
			}
			bound := float64(on.MaxRelease) +
				float64(work)*(delta-1)/(float64(in.M)*(delta-2)) +
				float64(maxP)
			if float64(on.Cmax) > bound+1e-9 {
				return fmt.Errorf("online Cmax %d exceeded the competitive envelope %.1f", on.Cmax, bound)
			}
			off, err := core.RLSIndependent(in, delta, core.TieSPT)
			if err != nil {
				return err
			}
			ratio := float64(on.Cmax) / float64(off.Cmax)
			accRatio.Add(ratio)
			fmt.Fprintf(w, "%-10d %10d %12d %12d %10.4f\n",
				releaseSpread, on.MaxRelease, on.Cmax, off.Cmax, ratio)
		}
	}
	fmt.Fprintf(w, "\nonline/offline Cmax ratio: mean %.4f, max %.4f — release-date uncertainty costs little\n",
		accRatio.Mean(), accRatio.Max())
	fmt.Fprintf(w, "until releases dominate the horizon, and the storage cap holds throughout\n")
	return nil
}
