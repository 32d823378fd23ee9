package storagesched

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
)

func TestFacadeUniform(t *testing.T) {
	in := GenUniform(30, 4, 2)
	speeds := Speeds{1, 2, 2, 4}
	res, err := SBOUniform(in, speeds, 1)
	if err != nil {
		t.Fatalf("SBOUniform: %v", err)
	}
	if res.Cmax.Float() > res.CmaxBound()+1e-9 {
		t.Error("uniform Cmax bound violated")
	}
	rls, err := RLSUniform(in, speeds, 3)
	if err != nil {
		t.Fatalf("RLSUniform: %v", err)
	}
	if rls.Mmax > rls.Cap {
		t.Error("uniform memory cap violated")
	}
}

func TestFacadeCondGraph(t *testing.T) {
	g := NewGraph(2, []Time{1, 4, 2, 1}, []Mem{1, 5, 3, 1})
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	cg := NewCondGraph(g)
	if err := cg.AddBranch(0, [][]int{{1}, {2}}, []float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	res, err := CondMonteCarlo(cg, 3, 50, 1)
	if err != nil {
		t.Fatalf("CondMonteCarlo: %v", err)
	}
	if res.StaticMeanCmax > float64(res.StaticFullCmax) {
		t.Error("static scenario mean exceeds full schedule")
	}
	rng := rand.New(rand.NewSource(2))
	scen := SampleScenario(cg, rng)
	ind, orig := InducedGraph(cg, scen)
	if ind.N() != len(orig) {
		t.Error("induced graph / mapping mismatch")
	}
}

func TestFacadeGenerateFront(t *testing.T) {
	in := GenUniform(12, 3, 5)
	grid, err := SweepGeometricGrid(1.0/32, 32, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sweep(context.Background(), in, SweepConfig{Deltas: grid})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	vals := res.FrontValues()
	if len(vals) == 0 {
		t.Fatal("empty front")
	}
	if eps := FrontEpsilon(vals, vals); eps != 0 {
		t.Errorf("self epsilon = %g", eps)
	}
}

func TestFacadeSim(t *testing.T) {
	in := GenUniform(20, 3, 7)
	res, err := RLSIndependent(in, 3, TieSPT)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReplaySchedule(res.Schedule, nil, res.Cap)
	if err != nil {
		t.Fatalf("ReplaySchedule: %v", err)
	}
	if rep.Cmax != res.Cmax {
		t.Error("replay disagrees with schedule")
	}
	on, err := OnlineRLS([]OnlineTask{{P: 3, S: 1, Release: 0}, {P: 2, S: 1, Release: 4}}, 2, 100)
	if err != nil {
		t.Fatalf("OnlineRLS: %v", err)
	}
	if on.Cmax != 6 {
		t.Errorf("online Cmax = %d, want 6", on.Cmax)
	}
}

func TestFacadeCSV(t *testing.T) {
	in := GenEmbeddedCode(15, 3, 4)
	var buf bytes.Buffer
	if err := WriteInstanceCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	back, err := ReadInstanceCSV(&buf, in.M)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != in.N() {
		t.Error("instance CSV round trip lost tasks")
	}
	sc := ScheduleFromAssignment(in, make(Assignment, in.N()))
	buf.Reset()
	if err := WriteScheduleCSV(&buf, sc); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadScheduleCSV(&buf, in.M); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeLDMAndRegistryAlgorithms(t *testing.T) {
	sizes := []int64{8, 7, 6, 5, 4}
	a := LDM{}.Assign(sizes, 2)
	if len(a) != 5 {
		t.Fatal("LDM assignment wrong length")
	}
	var alg MakespanAlgorithm = LDM{}
	if alg.Name() != "LDM" {
		t.Errorf("Name = %q", alg.Name())
	}
}
