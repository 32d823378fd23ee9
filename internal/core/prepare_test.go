package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"storagesched/internal/bounds"
	"storagesched/internal/makespan"
)

// scrambler is a makespan.Algorithm that reverses and doubles its
// sizes in place before a round-robin assignment, so a preparation
// that shared its p vector with a custom algorithm would see it change.
type scrambler struct{}

func (scrambler) Name() string        { return "scrambler" }
func (scrambler) Ratio(m int) float64 { return float64(m) }
func (scrambler) Assign(sizes []makespan.Size, m int) makespan.Assignment {
	slices.Sort(sizes)
	slices.Reverse(sizes)
	a := make(makespan.Assignment, len(sizes))
	for i := range sizes {
		sizes[i] *= 2
		a[i] = i % m
	}
	return a
}

// TestCustomSBOLeavesSharedPrepIntact runs a size-mutating algC and
// algM through InstancePrep.SBO and checks that the same item's RLS
// orders and runs, its lower-bound record and the instance itself are
// what an InstancePrep that never ran SBO gives.
func TestCustomSBOLeavesSharedPrepIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	ties := []TieBreak{TieByID, TieSPT, TieLPT, TieBottomLevel}
	for trial := 0; trial < 50; trial++ {
		in := randInstance(rng, 20, 4, 9)
		p0, s0 := in.P(), in.S()

		fresh, err := PrepareInstance(in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.RLS()
		if err != nil {
			t.Fatal(err)
		}
		wantBounds := bounds.ForInstance(in)

		ip, err := PrepareInstance(in)
		if err != nil {
			t.Fatal(err)
		}
		sbo := ip.SBO(scrambler{}, scrambler{})
		if _, err := sbo.Run(1); err != nil {
			t.Fatal(err)
		}
		got, err := ip.RLS()
		if err != nil {
			t.Fatal(err)
		}
		if gb := ip.Bounds(); gb != wantBounds {
			t.Fatalf("trial %d: Bounds after custom SBO = %+v, want %+v", trial, gb, wantBounds)
		}
		if !slices.Equal(in.P(), p0) || !slices.Equal(in.S(), s0) {
			t.Fatalf("trial %d: custom SBO changed the instance", trial)
		}
		for _, tie := range ties {
			gotOrder, _ := got.order(tie)
			wantOrder, _ := want.order(tie)
			if !slices.Equal(gotOrder, wantOrder) {
				t.Fatalf("trial %d tie %v: order %v, want %v", trial, tie, gotOrder, wantOrder)
			}
			for _, delta := range []float64{0.5, 1, 2} {
				gr, gerr := got.Run(delta, tie)
				wr, werr := want.Run(delta, tie)
				if !reflect.DeepEqual(gerr, werr) || !reflect.DeepEqual(gr, wr) {
					t.Fatalf("trial %d tie %v δ=%v: RLS run differs after custom SBO", trial, tie, delta)
				}
			}
		}
	}
}
