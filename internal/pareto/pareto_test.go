package pareto

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"storagesched/internal/model"
)

func TestFrontTinyKnownInstance(t *testing.T) {
	// The Section 4.1 instance at scale 4: p = (4,2,2), s = (ε,4,4)
	// with ε = 1. Expected front: (4, 8) and (6, 5).
	in := model.NewInstance(2, []model.Time{4, 2, 2}, []model.Mem{1, 4, 4})
	pts, err := Front(in)
	if err != nil {
		t.Fatalf("Front: %v", err)
	}
	want := []model.Value{{Cmax: 4, Mmax: 8}, {Cmax: 6, Mmax: 5}}
	if !SameFront(Values(pts), want) {
		t.Errorf("front = %v, want %v", Values(pts), want)
	}
}

func TestFrontSingleProcessor(t *testing.T) {
	in := model.NewInstance(1, []model.Time{3, 4}, []model.Mem{2, 5})
	pts, err := Front(in)
	if err != nil {
		t.Fatalf("Front: %v", err)
	}
	if len(pts) != 1 || pts[0].Value != (model.Value{Cmax: 7, Mmax: 7}) {
		t.Errorf("front = %v, want [(7,7)]", Values(pts))
	}
}

func TestFrontEmptyInstance(t *testing.T) {
	in := &model.Instance{M: 2}
	pts, err := Front(in)
	if err != nil {
		t.Fatalf("Front: %v", err)
	}
	if len(pts) != 1 || pts[0].Value != (model.Value{}) {
		t.Errorf("front = %v, want [(0,0)]", Values(pts))
	}
}

func TestFrontRejectsTooLarge(t *testing.T) {
	p := make([]model.Time, MaxTasks+1)
	s := make([]model.Mem, MaxTasks+1)
	for i := range p {
		p[i] = 1
	}
	in := model.NewInstance(2, p, s)
	if _, err := Front(in); err == nil {
		t.Error("oversized instance accepted")
	}
}

func TestWitnessAssignmentsAchieveValues(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		in := randomInstance(rng, 8, 3)
		pts, err := Front(in)
		if err != nil {
			t.Fatalf("Front: %v", err)
		}
		for _, p := range pts {
			if got := in.Eval(p.Assignment); got != p.Value {
				t.Errorf("witness evaluates to %v, front says %v", got, p.Value)
			}
		}
	}
}

func TestFilterDominated(t *testing.T) {
	vs := []model.Value{
		{Cmax: 1, Mmax: 5},
		{Cmax: 2, Mmax: 5}, // dominated
		{Cmax: 2, Mmax: 3},
		{Cmax: 3, Mmax: 3}, // dominated
		{Cmax: 2, Mmax: 3}, // duplicate
		{Cmax: 4, Mmax: 1},
	}
	got := FilterDominated(vs)
	want := []model.Value{{Cmax: 1, Mmax: 5}, {Cmax: 2, Mmax: 3}, {Cmax: 4, Mmax: 1}}
	if !SameFront(got, want) {
		t.Errorf("FilterDominated = %v, want %v", got, want)
	}
}

func TestEpsilonIndicator(t *testing.T) {
	ref := []model.Value{{Cmax: 10, Mmax: 20}, {Cmax: 20, Mmax: 10}}
	// The reference itself: epsilon 0.
	if e := EpsilonIndicator(ref, ref); e != 0 {
		t.Errorf("self indicator = %g, want 0", e)
	}
	// 10% worse everywhere.
	gend := []model.Value{{Cmax: 11, Mmax: 22}, {Cmax: 22, Mmax: 11}}
	if e := EpsilonIndicator(gend, ref); math.Abs(e-0.1) > 1e-9 {
		t.Errorf("indicator = %g, want 0.1", e)
	}
	// Empty generated set.
	if e := EpsilonIndicator(nil, ref); !math.IsInf(e, 1) {
		t.Errorf("empty generated: %g, want +Inf", e)
	}
	// Empty reference: trivially zero.
	if e := EpsilonIndicator(gend, nil); e != 0 {
		t.Errorf("empty reference: %g, want 0", e)
	}
}

func TestHypervolume(t *testing.T) {
	front := []model.Value{{Cmax: 1, Mmax: 3}, {Cmax: 2, Mmax: 1}}
	// Reference (4, 4): point (1,3) adds (4-1)*(4-3)=3; point (2,1)
	// adds (4-2)*(3-1)=4. Total 7.
	if hv := Hypervolume(front, 4, 4); hv != 7 {
		t.Errorf("hypervolume = %g, want 7", hv)
	}
	// Points beyond the reference contribute nothing.
	if hv := Hypervolume([]model.Value{{Cmax: 9, Mmax: 9}}, 4, 4); hv != 0 {
		t.Errorf("out-of-range hypervolume = %g, want 0", hv)
	}
}

func TestSameFront(t *testing.T) {
	a := []model.Value{{Cmax: 1, Mmax: 2}}
	b := []model.Value{{Cmax: 1, Mmax: 2}}
	if !SameFront(a, b) {
		t.Error("identical fronts reported different")
	}
	if SameFront(a, nil) {
		t.Error("different lengths reported same")
	}
	if SameFront(a, []model.Value{{Cmax: 1, Mmax: 3}}) {
		t.Error("different values reported same")
	}
}

func randomInstance(rng *rand.Rand, maxN, maxM int) *model.Instance {
	n := 1 + rng.Intn(maxN)
	m := 1 + rng.Intn(maxM)
	p := make([]model.Time, n)
	s := make([]model.Mem, n)
	for i := 0; i < n; i++ {
		p[i] = rng.Int63n(12) + 1
		s[i] = rng.Int63n(13)
	}
	return model.NewInstance(m, p, s)
}

// The pruned search and the brute force agree on every tiny instance.
func TestPropertyFrontMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng, 7, 3)
		fast, err1 := Front(in)
		slow, err2 := BruteForceFront(in)
		if err1 != nil || err2 != nil {
			return false
		}
		return SameFront(Values(fast), Values(slow))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Fronts are antichains: no value weakly dominates another.
func TestPropertyFrontIsAntichain(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng, 9, 3)
		pts, err := Front(in)
		if err != nil {
			return false
		}
		for i := range pts {
			for j := range pts {
				if i != j && pts[i].Value.WeaklyDominates(pts[j].Value) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Every front contains the lexicographic optima: the minimum possible
// Cmax appears as the first point's Cmax, and the minimum Mmax as the
// last point's Mmax.
func TestPropertyFrontContainsLexOptima(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng, 7, 3)
		pts, err := Front(in)
		if err != nil || len(pts) == 0 {
			return false
		}
		slow, err := BruteForceFront(in)
		if err != nil {
			return false
		}
		return pts[0].Value.Cmax == slow[0].Value.Cmax &&
			pts[len(pts)-1].Value.Mmax == slow[len(slow)-1].Value.Mmax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Random schedules never dominate a front point.
func TestPropertyNoScheduleBeatsFront(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng, 9, 3)
		pts, err := Front(in)
		if err != nil {
			return false
		}
		a := make(model.Assignment, in.N())
		for trial := 0; trial < 60; trial++ {
			for i := range a {
				a[i] = rng.Intn(in.M)
			}
			v := in.Eval(a)
			for _, p := range pts {
				if v.Dominates(p.Value) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
