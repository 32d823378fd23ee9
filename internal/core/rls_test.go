package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"storagesched/internal/bounds"
	"storagesched/internal/dag"
	"storagesched/internal/model"
)

func randGraph(rng *rand.Rand, maxN, maxM int, edgeProb float64, maxV int64) *dag.Graph {
	n := 2 + rng.Intn(maxN)
	m := 2 + rng.Intn(maxM-1)
	p := make([]model.Time, n)
	s := make([]model.Mem, n)
	for i := range p {
		p[i] = rng.Int63n(maxV) + 1
		s[i] = rng.Int63n(maxV + 1)
	}
	g := dag.New(m, p, s)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < edgeProb {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func TestRLSRejectsBadInput(t *testing.T) {
	g := dag.New(2, []model.Time{1}, []model.Mem{1})
	if _, err := RLS(g, 1.5, TieByID); err == nil {
		t.Error("delta < 2 accepted")
	}
	cyc := dag.New(2, []model.Time{1, 1}, []model.Mem{0, 0})
	cyc.AddEdge(0, 1)
	cyc.AddEdge(1, 0)
	if _, err := RLS(cyc, 3, TieByID); err == nil {
		t.Error("cyclic graph accepted")
	}
}

func TestRLSChainIsSequential(t *testing.T) {
	// A pure chain must run sequentially: Cmax = Σp regardless of m.
	g := dag.New(4, []model.Time{3, 1, 4, 1, 5}, []model.Mem{1, 1, 1, 1, 1})
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1)
	}
	res, err := RLS(g, 3, TieByID)
	if err != nil {
		t.Fatalf("RLS: %v", err)
	}
	if res.Cmax != 14 {
		t.Errorf("chain Cmax = %d, want 14", res.Cmax)
	}
	if err := res.Schedule.Validate(g.PredLists()); err != nil {
		t.Errorf("invalid schedule: %v", err)
	}
}

func TestRLSIndependentNoMemoryPressureIsListScheduling(t *testing.T) {
	// With tiny memory sizes the cap never binds and RLS behaves as
	// plain list scheduling; loads stay within the Graham bound.
	in := model.NewInstance(3, []model.Time{5, 4, 3, 3, 2, 1}, []model.Mem{1, 1, 1, 1, 1, 1})
	res, err := RLSIndependent(in, 3, TieLPT)
	if err != nil {
		t.Fatalf("RLSIndependent: %v", err)
	}
	// LPT on {5,4,3,3,2,1} with m=3: loads 6,6,6 -> Cmax 6 (optimal).
	if res.Cmax != 6 {
		t.Errorf("Cmax = %d, want 6", res.Cmax)
	}
}

func TestRLSMemoryCapIsRespected(t *testing.T) {
	// 4 tasks of memory 10 on 2 processors: LB = 20, delta = 2 ->
	// cap = 40; any split respects it. With delta close to 2 the
	// balanced split is forced.
	in := model.NewInstance(2, []model.Time{1, 1, 1, 1}, []model.Mem{10, 10, 10, 10})
	res, err := RLSIndependent(in, 2, TieByID)
	if err != nil {
		t.Fatalf("RLSIndependent: %v", err)
	}
	if res.Mmax > res.Cap {
		t.Errorf("Mmax %d exceeds cap %d", res.Mmax, res.Cap)
	}
	if res.Mmax != 20 {
		t.Errorf("Mmax = %d, want 20 (balanced)", res.Mmax)
	}
}

func TestRLSCmaxRatioFormula(t *testing.T) {
	// Corollary 3 at delta=3, m=4: 2 + 1 - 2/(4*1) = 2.5.
	if got := RLSCmaxRatio(3, 4); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("RLSCmaxRatio(3,4) = %g, want 2.5", got)
	}
	if !math.IsInf(RLSCmaxRatio(2, 4), 1) {
		t.Error("RLSCmaxRatio(2, ·) should be +Inf")
	}
	// Re-parameterised form from the end of Section 5.1:
	// delta = 2+delta' gives 2 + 1/delta' − (delta'+1)/(m·delta').
	deltaP := 1.5
	m := 6
	want := 2 + 1/deltaP - (deltaP+1)/(float64(m)*deltaP)
	if got := RLSCmaxRatio(2+deltaP, m); math.Abs(got-want) > 1e-12 {
		t.Errorf("reparameterised ratio: got %g, want %g", got, want)
	}
}

func TestRLSSumCiRatioFormula(t *testing.T) {
	if got := RLSSumCiRatio(3); got != 3 {
		t.Errorf("RLSSumCiRatio(3) = %g, want 3", got)
	}
	if got := RLSSumCiRatio(4); got != 2.5 {
		t.Errorf("RLSSumCiRatio(4) = %g, want 2.5", got)
	}
	if !math.IsInf(RLSSumCiRatio(2), 1) {
		t.Error("RLSSumCiRatio(2) should be +Inf")
	}
}

func TestTieBreakString(t *testing.T) {
	for tb, want := range map[TieBreak]string{
		TieByID: "ID", TieSPT: "SPT", TieLPT: "LPT", TieBottomLevel: "BLevel",
	} {
		if tb.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(tb), tb.String(), want)
		}
	}
}

// Corollary 2: Mmax ≤ ∆·LB, plus schedule feasibility, for every tie
// break, on random DAGs.
func TestPropertyRLSMemoryGuarantee(t *testing.T) {
	deltas := []float64{2, 2.5, 3, 4, 8}
	ties := []TieBreak{TieByID, TieSPT, TieLPT, TieBottomLevel}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randGraph(rng, 30, 6, 0.15, 50)
		delta := deltas[rng.Intn(len(deltas))]
		tie := ties[rng.Intn(len(ties))]
		res, err := RLS(g, delta, tie)
		if err != nil {
			return false // must never fail for delta >= 2
		}
		if res.Schedule.Validate(g.PredLists()) != nil {
			return false
		}
		lb := bounds.MemLB(g.S, g.M)
		return float64(res.Mmax) <= delta*float64(lb)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Lemma 4: the number of marked processors never exceeds ⌊m/(∆−1)⌋.
func TestPropertyRLSMarkedProcessors(t *testing.T) {
	deltas := []float64{2.5, 3, 4, 6}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randGraph(rng, 25, 8, 0.1, 40)
		delta := deltas[rng.Intn(len(deltas))]
		res, err := RLS(g, delta, TieByID)
		if err != nil {
			return false
		}
		return res.MarkedCount() <= int(float64(g.M)/(delta-1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Lemma 5, in its proof form: Cmax ≤ (1+1/(∆−2))·Σp/m +
// max(0, 1−(∆−1)/(m(∆−2)))·CP, testable without knowing C*max.
func TestPropertyRLSMakespanGuarantee(t *testing.T) {
	deltas := []float64{2.5, 3, 4, 8}
	ties := []TieBreak{TieByID, TieSPT, TieLPT, TieBottomLevel}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randGraph(rng, 30, 6, 0.15, 50)
		delta := deltas[rng.Intn(len(deltas))]
		tie := ties[rng.Intn(len(ties))]
		res, err := RLS(g, delta, tie)
		if err != nil {
			return false
		}
		cp, err := g.CriticalPath()
		if err != nil {
			return false
		}
		work := float64(g.TotalWork()) / float64(g.M)
		coefCP := 1 - (delta-1)/(float64(g.M)*(delta-2))
		if coefCP < 0 {
			coefCP = 0
		}
		bound := (1+1/(delta-2))*work + coefCP*float64(cp)
		return float64(res.Cmax) <= bound+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The aggregate Corollary 3 form: Cmax ≤ ratio · max(Σp/m, CP), since
// both Σp/m and CP lower-bound C*max.
func TestPropertyRLSCorollary3(t *testing.T) {
	deltas := []float64{2.5, 3, 4, 8}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randGraph(rng, 30, 6, 0.2, 50)
		delta := deltas[rng.Intn(len(deltas))]
		res, err := RLS(g, delta, TieByID)
		if err != nil {
			return false
		}
		cp, _ := g.CriticalPath()
		lb := float64(g.TotalWork()) / float64(g.M)
		if float64(cp) > lb {
			lb = float64(cp)
		}
		return float64(res.Cmax) <= RLSCmaxRatio(delta, g.M)*lb+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Lemma 6, tested directly on SPT schedules: ΣCi on q processors is
// at most (m/q + 1)·ΣCi on m ≥ q processors.
func TestPropertyLemma6(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		p := make([]model.Time, n)
		for i := range p {
			p[i] = rng.Int63n(100) + 1
		}
		m := 2 + rng.Intn(8)
		q := 1 + rng.Intn(m)
		full := bounds.SumCiSPT(p, m)
		restricted := bounds.SumCiSPT(p, q)
		bound := (float64(m)/float64(q) + 1) * float64(full)
		return float64(restricted) <= bound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Corollary 4: RLS-SPT on independent tasks is simultaneously
// (2+1/(∆−2)−(∆−1)/(m(∆−2)), ∆, 2+1/(∆−2))-approximate. ΣCi is
// compared against the true optimum (SPT on all m processors).
func TestPropertyRLSTriObjective(t *testing.T) {
	deltas := []float64{2.5, 3, 4, 8}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randInstance(rng, 40, 8, 100)
		if in.M < 2 {
			in.M = 2
		}
		delta := deltas[rng.Intn(len(deltas))]
		res, err := RLSIndependent(in, delta, TieSPT)
		if err != nil {
			return false
		}
		if res.Schedule.Validate(nil) != nil {
			return false
		}
		lbRec := bounds.ForInstance(in)
		// Mmax: Corollary 2.
		if float64(res.Mmax) > delta*float64(lbRec.MmaxLB)+1e-9 {
			return false
		}
		// Cmax: Corollary 3 against max(Σp/m, pmax).
		cLB := float64(in.TotalWork()) / float64(in.M)
		if float64(in.MaxP()) > cLB {
			cLB = float64(in.MaxP())
		}
		if float64(res.Cmax) > RLSCmaxRatio(delta, in.M)*cLB+1e-6 {
			return false
		}
		// ΣCi: Corollary 4 against the SPT optimum.
		opt := bounds.SumCiSPT(in.P(), in.M)
		return float64(res.SumCi) <= RLSSumCiRatio(delta)*float64(opt)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Algorithm 2 on an edgeless DAG and the strict-order independent
// variant agree on guarantees (both are valid instantiations of the
// paper's "arbitrary total ordering").
func TestPropertyRLSVariantsAgreeOnGuarantees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randInstance(rng, 25, 5, 60)
		if in.M < 2 {
			in.M = 2
		}
		delta := 3.0
		g := dag.FromInstance(in)
		r1, err1 := RLS(g, delta, TieSPT)
		r2, err2 := RLSIndependent(in, delta, TieSPT)
		if err1 != nil || err2 != nil {
			return false
		}
		lb := bounds.MemLB(in.S(), in.M)
		return float64(r1.Mmax) <= delta*float64(lb)+1e-9 &&
			float64(r2.Mmax) <= delta*float64(lb)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRLSWithCapExplicit(t *testing.T) {
	in := model.NewInstance(2, []model.Time{1, 1, 1, 1}, []model.Mem{10, 10, 10, 10})
	// Cap 20 = LB: perfectly balanced split required; the greedy
	// achieves it here.
	res, err := cappedRLSIndependent(in, 20, TieByID)
	if err != nil {
		t.Fatalf("cappedRLSIndependent: %v", err)
	}
	if res.Mmax != 20 {
		t.Errorf("Mmax = %d, want 20", res.Mmax)
	}
	// Cap 19 < LB: some task cannot be placed once both processors
	// hold one task... actually cap 19 < 20=LB means after one task
	// per processor (10 each), the next needs 20 > 19: stuck.
	if _, err := cappedRLSIndependent(in, 19, TieByID); err == nil {
		t.Error("cap below LB accepted")
	}
}

func TestRLSDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randGraph(rng, 30, 5, 0.2, 50)
	r1, err1 := RLS(g, 3, TieBottomLevel)
	r2, err2 := RLS(g, 3, TieBottomLevel)
	if err1 != nil || err2 != nil {
		t.Fatalf("RLS errors: %v %v", err1, err2)
	}
	for i := range r1.Schedule.Proc {
		if r1.Schedule.Proc[i] != r2.Schedule.Proc[i] || r1.Schedule.Start[i] != r2.Schedule.Start[i] {
			t.Fatalf("non-deterministic schedule at task %d", i)
		}
	}
}

// TestRLSNonFiniteDeltaErrors is the regression test for the nil
// *big.Rat panic: big.Rat.SetFloat64 returns nil for non-finite input,
// so δ = +Inf used to crash memCapFloor with a nil dereference, and
// δ = NaN slipped past the `delta < 2` guard into the same path. Every
// RLS entry point (and the exported MemCap) must return an error
// instead.
func TestRLSNonFiniteDeltaErrors(t *testing.T) {
	in := model.NewInstance(2, []model.Time{3, 2, 4}, []model.Mem{1, 2, 3})
	g := dag.FromInstance(in)
	prepInd, err := PrepareRLSIndependent(in, TieSPT)
	if err != nil {
		t.Fatal(err)
	}
	prepG, err := PrepareRLS(g, TieSPT)
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, err := RLS(g, delta, TieSPT); err == nil {
			t.Errorf("RLS(delta=%g): no error", delta)
		}
		if _, err := RLSIndependent(in, delta, TieSPT); err == nil {
			t.Errorf("RLSIndependent(delta=%g): no error", delta)
		}
		if _, err := prepInd.Run(delta, TieSPT); err == nil {
			t.Errorf("RLSPrepared.Run(delta=%g): no error", delta)
		}
		if _, err := prepG.Run(delta, TieSPT); err == nil {
			t.Errorf("RLSGraphPrepared.Run(delta=%g): no error", delta)
		}
		if _, err := MemCap(delta, 10); err == nil {
			t.Errorf("MemCap(delta=%g): no error", delta)
		}
	}
	// Finite deltas still work through the exported cap helper.
	if cap, err := MemCap(2.5, 10); err != nil || cap != 25 {
		t.Errorf("MemCap(2.5, 10) = (%d, %v), want (25, nil)", cap, err)
	}
}

// TestPrepareRLSMatchesUnprepared checks the graph-prepared path is
// bit-identical to direct RLS / cappedRLS calls for every tie-break
// across a δ-grid — the contract the sweep engine relies on.
func TestPrepareRLSMatchesUnprepared(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		g := randGraph(rng, 25, 5, 0.25, 40)
		prep, err := PrepareRLS(g)
		if err != nil {
			t.Fatalf("trial %d: PrepareRLS: %v", trial, err)
		}
		if want := bounds.MemLB(g.S, g.M); prep.LB() != want {
			t.Fatalf("trial %d: LB = %d, want %d", trial, prep.LB(), want)
		}
		for _, tie := range []TieBreak{TieByID, TieSPT, TieLPT, TieBottomLevel} {
			for _, delta := range []float64{2, 2.5, 3, 4.75, 8} {
				got, err := prep.Run(delta, tie)
				if err != nil {
					t.Fatalf("trial %d: prepared Run(%g, %s): %v", trial, delta, tie, err)
				}
				want, err := RLS(g, delta, tie)
				if err != nil {
					t.Fatalf("trial %d: RLS(%g, %s): %v", trial, delta, tie, err)
				}
				if got.Cmax != want.Cmax || got.Mmax != want.Mmax ||
					got.LB != want.LB || got.Cap != want.Cap || got.Delta != want.Delta {
					t.Fatalf("trial %d %s delta=%g: prepared (%d,%d,LB=%d,cap=%d), direct (%d,%d,LB=%d,cap=%d)",
						trial, tie, delta, got.Cmax, got.Mmax, got.LB, got.Cap,
						want.Cmax, want.Mmax, want.LB, want.Cap)
				}
				for i := range got.Schedule.Proc {
					if got.Schedule.Proc[i] != want.Schedule.Proc[i] ||
						got.Schedule.Start[i] != want.Schedule.Start[i] {
						t.Fatalf("trial %d %s delta=%g: schedules differ at task %d", trial, tie, delta, i)
					}
				}
			}
			cap := 2 * bounds.MemLB(g.S, g.M)
			got, err := prep.RunWithCap(cap, tie)
			if err != nil {
				t.Fatalf("trial %d: prepared RunWithCap(%d, %s): %v", trial, cap, tie, err)
			}
			want, err := cappedRLS(g, cap, tie)
			if err != nil {
				t.Fatalf("trial %d: cappedRLS(%d, %s): %v", trial, cap, tie, err)
			}
			if got.Cmax != want.Cmax || got.Mmax != want.Mmax || got.Delta != want.Delta {
				t.Fatalf("trial %d %s cap=%d: prepared (%d,%d), direct (%d,%d)",
					trial, tie, cap, got.Cmax, got.Mmax, want.Cmax, want.Mmax)
			}
		}
	}
}

// TestPrepareRLSErrors covers the prepared constructor's failure modes.
func TestPrepareRLSErrors(t *testing.T) {
	cyc := dag.New(2, []model.Time{1, 1}, []model.Mem{0, 0})
	cyc.AddEdge(0, 1)
	cyc.AddEdge(1, 0)
	if _, err := PrepareRLS(cyc); err == nil {
		t.Error("cyclic graph accepted")
	}
	if _, err := PrepareRLS(dag.New(2, []model.Time{1}, []model.Mem{1}), TieBreak(99)); err == nil {
		t.Error("unknown tie-break accepted")
	}
	g := dag.New(2, []model.Time{1, 2}, []model.Mem{1, 1})
	prep, err := PrepareRLS(g, TieSPT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Run(3, TieLPT); err == nil {
		t.Error("unprepared tie-break accepted")
	}
	if _, err := prep.RunWithCap(100, TieLPT); err == nil {
		t.Error("unprepared tie-break accepted by RunWithCap")
	}
}
