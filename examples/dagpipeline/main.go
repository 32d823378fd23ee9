// DAG pipeline: precedence-constrained scheduling with storage limits,
// the embedded-system setting of Section 5. A staged fork-join
// pipeline (sensor frontend -> parallel filters -> fusion -> ...) is
// swept across a δ-grid with the graph-sweep engine: SweepGraph runs
// every RLS tie-break at every δ ≥ 2 against memoized per-graph state
// and assembles the approximate (Cmax, Mmax) Pareto front, so the
// Corollary 3 trade-off appears as a front walk instead of a manual
// δ-loop.
//
//	go run ./examples/dagpipeline
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	sched "storagesched"
)

func main() {
	const (
		nProcs = 4
		stages = 4
		width  = 10
		seed   = 3
	)
	g := sched.GenForkJoin(nProcs, stages, width, seed)
	rec, err := sched.BoundsForGraph(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline DAG: %d tasks, %d arcs, %d processors\n", g.N(), g.NumEdges(), g.M)
	fmt.Printf("lower bounds: critical path %d, work/m %d, memory %d\n\n",
		rec.CriticalPath, rec.WorkOverM, rec.MmaxLB)

	// One sweep call replaces the per-δ loop: all four tie-breaks at
	// every δ ≥ 2, topological structure and tie orders prepared once.
	grid, err := sched.SweepGeometricGrid(2.2, 10, 8)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sched.SweepGraph(context.Background(), g, sched.SweepConfig{Deltas: grid})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sweep: %d RLS runs -> %d front points\n\n", len(res.Runs), len(res.Front))
	fmt.Printf("%-10s %-10s %-9s %-9s %s\n", "Cmax", "Mmax", "Cmax/LB", "Mmax/LB", "witness")
	for _, p := range res.Front {
		fmt.Printf("%-10d %-10d %-9.4f %-9.4f %s\n",
			p.Value.Cmax, p.Value.Mmax,
			float64(p.Value.Cmax)/float64(rec.CmaxLB),
			float64(p.Value.Mmax)/float64(rec.MmaxLB),
			res.Runs[p.RunIndex].Label())
	}
	fmt.Println("\nwalking the front trades storage balance against schedule length;")
	fmt.Println("every point is a Lemma 4/5-certified RLS schedule of the pipeline.")

	// Sweep runs carry values only. A run's schedule and its Lemma 4
	// analysis are a pure function of (graph, δ, tie-break), so they
	// are recomputed against one prepared graph: the marked-processor
	// cap holds at every grid point.
	prep, err := sched.PrepareRLS(g)
	if err != nil {
		log.Fatal(err)
	}
	witness := func(r sched.SweepRun) *sched.RLSResult {
		w, err := prep.Run(r.Delta, r.Tie)
		if err != nil {
			log.Fatal(err)
		}
		if w.Cmax != r.Value.Cmax || w.Mmax != r.Value.Mmax {
			log.Fatalf("%s: recomputed (%d,%d), swept %v", r.Label(), w.Cmax, w.Mmax, r.Value)
		}
		return w
	}
	for _, r := range res.Runs {
		if limit, mc := int(float64(g.M)/(r.Delta-1)), witness(r).MarkedCount(); mc > limit {
			log.Fatalf("%s: %d marked processors exceed the Lemma 4 cap %d", r.Label(), mc, limit)
		}
	}

	// Render the witness of the tightest-memory front point (the last
	// front entry has the smallest Mmax).
	run := res.Runs[res.Front[len(res.Front)-1].RunIndex]
	w := witness(run)
	if err := w.Schedule.Validate(g.PredLists()); err != nil {
		log.Fatalf("invalid schedule: %v", err)
	}
	fmt.Printf("\nschedule of %s (tightest memory on the front):\n", run.Label())
	if err := sched.RenderGantt(os.Stdout, w.Schedule, sched.GanttOptions{Width: 72}); err != nil {
		log.Fatal(err)
	}

	// Hard storage budget on the DAG (Section 7): the constrained
	// solver reuses the same RLS machinery with an explicit cap.
	budget := 2 * rec.MmaxLB
	cres, err := sched.ConstrainedDAG(g, budget, sched.TieBottomLevel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhard budget %d: Cmax=%d, Mmax=%d (within budget: %v)\n",
		budget, cres.Cmax, cres.Mmax, cres.Mmax <= budget)
}
