package exp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"storagesched/internal/engine"
	"storagesched/internal/model"
	"storagesched/internal/pareto"
)

func randomInstance(rng *rand.Rand, maxN, maxM int) *model.Instance {
	n := 4 + rng.Intn(maxN-3)
	m := 2 + rng.Intn(maxM-1)
	p := make([]model.Time, n)
	s := make([]model.Mem, n)
	for i := 0; i < n; i++ {
		p[i] = rng.Int63n(40) + 1
		s[i] = rng.Int63n(40) + 1
	}
	return model.NewInstance(m, p, s)
}

func geoGrid(t *testing.T, n int) []float64 {
	t.Helper()
	grid, err := engine.GeometricGrid(1.0/32, 32, n)
	if err != nil {
		t.Fatal(err)
	}
	return grid
}

// On small instances the swept-and-probed front must be within a
// modest epsilon of the exact front: the guarantee form predicts at
// most rho*(grid factor) − 1 with LPT, so 0.75 is a loose envelope.
func TestGeneratedFrontNearExactSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := engine.Config{Deltas: geoGrid(t, 33)}
	for trial := 0; trial < 12; trial++ {
		in := randomInstance(rng, 10, 3)
		exact, err := pareto.Front(in)
		if err != nil {
			t.Fatalf("exact front: %v", err)
		}
		approx, err := sweepFront(in, cfg, 6)
		if err != nil {
			t.Fatalf("sweepFront: %v", err)
		}
		if e := pareto.EpsilonIndicator(approx, pareto.Values(exact)); e > 0.75 {
			t.Errorf("trial %d: epsilon indicator %.3f too large (exact %v vs approx %v)",
				trial, e, pareto.Values(exact), approx)
		}
	}
}

// The probed front is a strictly trading-off antichain, and none of
// its points beats the exact front — the probes only add points the
// constrained search certified.
func TestPropertyGeneratedPointsConsistent(t *testing.T) {
	cfg := engine.Config{Deltas: geoGrid(t, 13)}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng, 9, 3)
		approx, err := sweepFront(in, cfg, 4)
		if err != nil || len(approx) == 0 {
			return false
		}
		exact, err := pareto.Front(in)
		if err != nil {
			return false
		}
		for _, g := range approx {
			for _, e := range exact {
				if g.Dominates(e.Value) {
					return false // impossible: exact front is optimal
				}
			}
		}
		for i := 1; i < len(approx); i++ {
			if approx[i].Cmax <= approx[i-1].Cmax || approx[i].Mmax >= approx[i-1].Mmax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSweepFrontRejectsInvalid(t *testing.T) {
	if _, err := sweepFront(&model.Instance{M: 0}, engine.Config{Deltas: geoGrid(t, 3)}, 2); err == nil {
		t.Error("invalid instance accepted")
	}
}
