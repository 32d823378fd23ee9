package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"storagesched/internal/bounds"
	"storagesched/internal/dag"
	"storagesched/internal/gen"
	"storagesched/internal/model"
)

// refTieOrder is the reference tie-break order by definition: the
// stable sort of the identity by the tie's key.
func refTieOrder(p, bottom []model.Time, tie TieBreak) []int {
	order := make([]int, len(p))
	for i := range order {
		order[i] = i
	}
	switch tie {
	case TieSPT:
		sort.SliceStable(order, func(a, b int) bool { return p[order[a]] < p[order[b]] })
	case TieLPT:
		sort.SliceStable(order, func(a, b int) bool { return p[order[a]] > p[order[b]] })
	case TieBottomLevel:
		sort.SliceStable(order, func(a, b int) bool { return bottom[order[a]] > bottom[order[b]] })
	}
	return order
}

var allTies = []TieBreak{TieByID, TieSPT, TieLPT, TieBottomLevel}

// diffCaps returns the caps the differential runs sweep: 1×LB to 8×LB,
// with the values just below 2·LB where ErrCapTooSmall is possible.
func diffCaps(lb model.Mem) []model.Mem {
	return []model.Mem{lb, lb + 1, lb * 3 / 2, 2*lb - 1, 2 * lb, 3 * lb, 4 * lb, 8 * lb}
}

// checkRankedAgainstRef runs the production DAG loop and the reference
// on every tie and cap and requires equal results — every RLSResult
// field, Marked included — or equal errors. It runs the loop's value
// form too, which must return the reference's (Cmax, Mmax) or its
// error; scr backs the value form and is reused across runs, so stale
// scratch state would show. It returns how many runs failed
// (identically) with ErrCapTooSmall.
func checkRankedAgainstRef(t testing.TB, name string, g *dag.Graph, scr *Scratch) (fails int) {
	t.Helper()
	bottom, err := g.BottomLevels()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	npreds := predCounts(g)
	for _, tie := range allTies {
		order, err := tieOrder(g, tie)
		if err != nil {
			t.Fatalf("%s %s: %v", name, tie, err)
		}
		if want := refTieOrder(g.P, bottom, tie); !reflect.DeepEqual(order, want) {
			t.Fatalf("%s %s: order %v, reference %v", name, tie, order, want)
		}
		rank := rankOf(order)
		for _, cap := range diffCaps(bounds.MemLB(g.S, g.M)) {
			got, gotErr := rankedWitness(g, rank, npreds, cap)
			want, wantErr := refRLSRanked(g, rank, npreds, cap)
			if !reflect.DeepEqual(gotErr, wantErr) {
				t.Fatalf("%s %s cap=%d: error %v, reference %v", name, tie, cap, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s cap=%d: result differs from the reference\ngot  %+v\nwant %+v", name, tie, cap, got, want)
			}
			v, vErr := rankedValue(g, rank, npreds, cap, scr)
			checkValueAgainstRef(t, fmt.Sprintf("%s %s cap=%d", name, tie, cap), v, vErr, want, wantErr)
			if gotErr != nil {
				fails++
			}
		}
	}
	return fails
}

// checkIndependentAgainstRef is checkRankedAgainstRef for the Section
// 5.2 loop; it also checks that the orders derived from the one LPT
// sort equal the stable sorts of the edgeless graph's keys.
func checkIndependentAgainstRef(t testing.TB, name string, in *model.Instance, scr *Scratch) (fails int) {
	t.Helper()
	p := in.P()
	o := orderer{p: p}
	for _, tie := range allTies {
		order, err := o.order(tie)
		if err != nil {
			t.Fatalf("%s %s: %v", name, tie, err)
		}
		// An isolated task's bottom level is its p.
		if want := refTieOrder(p, p, tie); !reflect.DeepEqual(order, want) {
			t.Fatalf("%s %s: order %v, reference %v", name, tie, order, want)
		}
		for _, cap := range diffCaps(bounds.MemLB(in.S(), in.M)) {
			got, gotErr := independentWitness(in, order, cap)
			want, wantErr := refRLSIndependentOrdered(in, order, cap)
			if !reflect.DeepEqual(gotErr, wantErr) {
				t.Fatalf("%s %s cap=%d: error %v, reference %v", name, tie, cap, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s cap=%d: result differs from the reference\ngot  %+v\nwant %+v", name, tie, cap, got, want)
			}
			v, vErr := independentValue(in, order, cap, scr)
			checkValueAgainstRef(t, fmt.Sprintf("%s %s cap=%d", name, tie, cap), v, vErr, want, wantErr)
			if gotErr != nil {
				fails++
			}
		}
	}
	return fails
}

// checkValueAgainstRef requires a value-form run to return the
// reference's error, or its (Cmax, Mmax).
func checkValueAgainstRef(t testing.TB, name string, v model.Value, err error, want *RLSResult, wantErr error) {
	t.Helper()
	if !reflect.DeepEqual(err, wantErr) {
		t.Fatalf("%s: value form error %v, reference %v", name, err, wantErr)
	}
	if wantErr == nil && v != (model.Value{Cmax: want.Cmax, Mmax: want.Mmax}) {
		t.Fatalf("%s: value form %v, reference (%d,%d)", name, v, want.Cmax, want.Mmax)
	}
}

// zeroHeavyGraph is a random DAG whose p and s values are drawn from a
// tiny range including 0, so equal loads, zero-length tasks and
// memory-free tasks are common.
func zeroHeavyGraph(rng *rand.Rand, m, n int, edgeProb float64) *dag.Graph {
	p := make([]model.Time, n)
	s := make([]model.Mem, n)
	for i := range p {
		p[i] = rng.Int63n(4)
		s[i] = rng.Int63n(4)
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

// TestRLSLoopsMatchReference is the differential oracle of the
// sorted-processor, ready-list loops: across every DAG family,
// edgeless graphs, chains, m = 1, zero-p and zero-s tasks, each tie and
// caps from LB to 8·LB, both loops equal the test-only references, in
// witness and in value form.
func TestRLSLoopsMatchReference(t *testing.T) {
	scr := NewScratch()
	var dagFails, indepFails int
	for _, fam := range gen.DAGFamilies() {
		for _, m := range []int{1, 2, 3, 8} {
			for seed := int64(1); seed <= 3; seed++ {
				g := fam.Gen(m, 40, seed)
				dagFails += checkRankedAgainstRef(t, fmt.Sprintf("%s m=%d seed=%d", fam.Name, m, seed), g, scr)
			}
		}
	}
	for _, fam := range gen.Families() {
		for _, m := range []int{1, 2, 5, 16} {
			in := fam.Gen(60, m, int64(m))
			name := fmt.Sprintf("%s m=%d", fam.Name, m)
			indepFails += checkIndependentAgainstRef(t, name, in, scr)
			dagFails += checkRankedAgainstRef(t, name+" edgeless", dag.FromInstance(in), scr)
		}
	}
	for _, m := range []int{1, 3} {
		dagFails += checkRankedAgainstRef(t, fmt.Sprintf("chain m=%d", m), gen.Chain(m, 30, 5), scr)
	}
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(6)
		n := rng.Intn(30)
		g := zeroHeavyGraph(rng, m, n, []float64{0, 0.05, 0.2, 0.6}[trial%4])
		name := fmt.Sprintf("zero-heavy trial %d", trial)
		dagFails += checkRankedAgainstRef(t, name, g, scr)
		in := model.NewInstance(m, g.P, g.S)
		indepFails += checkIndependentAgainstRef(t, name, in, nil)
	}
	// Caps below 2·LB must exercise the ErrCapTooSmall paths of both
	// loops, or the oracle would only ever compare successes.
	if dagFails == 0 || indepFails == 0 {
		t.Errorf("ErrCapTooSmall runs: %d DAG, %d independent; want both > 0", dagFails, indepFails)
	}
	t.Logf("ErrCapTooSmall runs: %d DAG, %d independent", dagFails, indepFails)
}

// FuzzRLSLoop decodes a small task DAG from the fuzzer's bytes — m,
// then (p, s) pairs, then forward edges — and checks both production
// loops, witness and value forms, against the references on every tie
// and cap.
func FuzzRLSLoop(f *testing.F) {
	f.Add([]byte{2, 3, 1, 0, 2, 5, 0, 1, 1, 1, 2, 0, 2})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{4, 9, 9, 1, 1, 1, 1, 0, 7, 3, 3, 2, 2, 0, 1, 1, 2, 2, 3, 3, 4})
	f.Add([]byte{1, 16, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m := 1 + int(data[0]%6)
		n := int(data[1] % 24)
		data = data[2:]
		if len(data) < 2*n {
			n = len(data) / 2
		}
		p := make([]model.Time, n)
		s := make([]model.Mem, n)
		for i := 0; i < n; i++ {
			p[i] = model.Time(data[2*i] % 16)
			s[i] = model.Mem(data[2*i+1] % 16)
		}
		g := dag.New(m, p, s)
		for _, b := range data[2*n:] {
			if n < 2 {
				break
			}
			u := int(b>>4) % n
			v := int(b&15) % n
			if u > v {
				u, v = v, u
			}
			if u != v {
				g.AddEdge(u, v)
			}
		}
		scr := NewScratch()
		checkRankedAgainstRef(t, "fuzz", g, scr)
		checkIndependentAgainstRef(t, "fuzz", model.NewInstance(m, p, s), scr)
	})
}
