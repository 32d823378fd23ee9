package storagesched

// Cross-module integration tests: each walks a realistic pipeline
// through several subsystems and checks the joints, not the units.

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
)

// gen -> SBO -> schedule -> CSV -> replay: the full "schedule a batch
// and audit it" round trip.
func TestIntegrationScheduleAuditRoundTrip(t *testing.T) {
	in := GenGridBatch(60, 8, 4)
	res, err := SBOWithLPT(in, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	sc := ScheduleFromAssignmentSPT(in, res.Assignment)

	var csvBuf bytes.Buffer
	if err := WriteScheduleCSV(&csvBuf, sc); err != nil {
		t.Fatal(err)
	}
	back, err := ReadScheduleCSV(&csvBuf, in.M)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReplaySchedule(back, nil, 0)
	if err != nil {
		t.Fatalf("replay of round-tripped schedule: %v", err)
	}
	if rep.Cmax != res.Cmax || rep.Mmax != res.Mmax {
		t.Errorf("replay objectives (%d,%d) != SBO result (%d,%d)",
			rep.Cmax, rep.Mmax, res.Cmax, res.Mmax)
	}
}

// gen DAG -> RLS -> replay with the RLS cap: the simulator must accept
// exactly the budget the algorithm promised.
func TestIntegrationRLSCapHonouredBySimulator(t *testing.T) {
	g := GenLayeredDAG(6, 10, 4, 2)
	res, err := RLS(g, 2.5, TieBottomLevel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplaySchedule(res.Schedule, g.PredLists(), res.Cap); err != nil {
		t.Fatalf("simulator rejected an RLS schedule under its own cap: %v", err)
	}
	// A budget one unit below the achieved Mmax must be rejected.
	if res.Mmax > 0 {
		if _, err := ReplaySchedule(res.Schedule, g.PredLists(), res.Mmax-1); err == nil {
			t.Error("simulator accepted a busted budget")
		}
	}
}

// instance CSV -> constrained solve -> Pareto cross-check on a small
// instance: the solver's point must not dominate the exact front.
func TestIntegrationConstrainedVsExactFront(t *testing.T) {
	in := GenUniform(10, 3, 11)
	var buf bytes.Buffer
	if err := WriteInstanceCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	back, err := ReadInstanceCSV(&buf, in.M)
	if err != nil {
		t.Fatal(err)
	}
	front, err := ParetoFront(back)
	if err != nil {
		t.Fatal(err)
	}
	lb := MemLB(back.S(), back.M)
	a, v, err := ConstrainedIndependent(back, 2*lb)
	if err != nil {
		t.Fatal(err)
	}
	_ = a
	for _, p := range front {
		if v.Dominates(p.Value) {
			t.Fatalf("heuristic value %v dominates exact front point %v", v, p.Value)
		}
	}
}

// conditional graph -> induced scenario -> RLS -> replay: scenario
// schedules honour precedence and the memory bound end to end.
func TestIntegrationConditionalScenarioPipeline(t *testing.T) {
	g := GenForkJoin(4, 5, 4, 6)
	cg := NewCondGraph(g)
	added := 0
	for v := 0; v < g.N() && added < 2; v++ {
		succs := g.Succs(v)
		if len(succs) >= 3 {
			if err := cg.AddBranch(v, [][]int{{succs[0]}, {succs[1]}}, []float64{0.5, 0.5}); err != nil {
				t.Fatal(err)
			}
			added++
		}
	}
	if added == 0 {
		t.Fatal("no branch sites")
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		scen := SampleScenario(cg, rng)
		ind, _ := InducedGraph(cg, scen)
		if ind.N() == 0 {
			continue
		}
		res, err := RLS(ind, 3, TieBottomLevel)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReplaySchedule(res.Schedule, ind.PredLists(), res.Cap); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// online arrivals -> replay: the online scheduler's output is a valid
// schedule under the same budget in the simulator.
func TestIntegrationOnlinePipeline(t *testing.T) {
	in := GenEmbeddedCode(50, 6, 9)
	lb := MemLB(in.S(), in.M)
	cap := 3 * lb
	rng := rand.New(rand.NewSource(1))
	tasks := make([]OnlineTask, in.N())
	for i, task := range in.Tasks {
		tasks[i] = OnlineTask{P: task.P, S: task.S, Release: rng.Int63n(100)}
	}
	res, err := OnlineRLS(tasks, in.M, cap)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReplaySchedule(res.Schedule, nil, cap)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Cmax != res.Cmax || rep.Mmax != res.Mmax {
		t.Errorf("replay (%d,%d) != online result (%d,%d)", rep.Cmax, rep.Mmax, res.Cmax, res.Mmax)
	}
}

// delta sweep front -> all witnesses replayable; epsilon vs exact on a
// small instance within the sweep envelope.
func TestIntegrationGeneratedFrontPipeline(t *testing.T) {
	in := GenUniform(9, 3, 21)
	grid, err := SweepGeometricGrid(1.0/32, 32, 17)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sweep(context.Background(), in, SweepConfig{Deltas: grid})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty generated front")
	}
	for _, p := range res.Front {
		sc := ScheduleFromAssignment(in, sweepWitness(t, in, res.Runs[p.RunIndex]))
		rep, err := ReplaySchedule(sc, nil, 0)
		if err != nil {
			t.Fatalf("witness replay: %v", err)
		}
		if rep.Cmax != p.Value.Cmax || rep.Mmax != p.Value.Mmax {
			t.Errorf("witness replays to (%d,%d), front point is %v", rep.Cmax, rep.Mmax, p.Value)
		}
	}
	exact, err := ParetoFront(in)
	if err != nil {
		t.Fatal(err)
	}
	var exactVals []Value
	for _, p := range exact {
		exactVals = append(exactVals, p.Value)
	}
	if eps := FrontEpsilon(res.FrontValues(), exactVals); eps > 0.75 {
		t.Errorf("front epsilon %.3f beyond the sweep envelope", eps)
	}
}

// uniform machines: SBOUniform assignment replays cleanly when mapped
// to a plain schedule at unit speed scaling (work = p on its machine).
func TestIntegrationUniformFacade(t *testing.T) {
	in := GenUniform(40, 6, 2)
	speeds := Speeds{1, 1, 2, 2, 4, 4}
	res, err := SBOUniform(in, speeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ValidateAssignment(res.Assignment); err != nil {
		t.Fatal(err)
	}
	got := UniformCmax(in.P(), speeds, res.Assignment)
	if got.Float() != res.Cmax.Float() {
		t.Errorf("UniformCmax %g != result %g", got.Float(), res.Cmax.Float())
	}
}
