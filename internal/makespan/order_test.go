package makespan

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"testing"
)

// descendingRef is DescendingOrder's reference: the identity sorted by
// a plain (key desc, index asc) comparator.
func descendingRef(keys []Size) []int {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(keys[b], keys[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// TestDescendingOrderPaths pins which path each key shape takes and
// checks both against the reference, on both sides of the packing
// limit (a spread of 2^31 with no negative key). A 32-bit int always
// takes the comparator.
func TestDescendingOrderPaths(t *testing.T) {
	cases := []struct {
		name   string
		keys   []Size
		packed bool
	}{
		{"empty", nil, false},
		{"one", []Size{7}, true},
		{"one zero", []Size{0}, true},
		{"all equal", []Size{4, 4, 4, 4, 4}, true},
		{"zeros and ties", []Size{0, 3, 0, 3, 1, 0, 3}, true},
		{"spread just inside", []Size{0, 1<<31 - 1, 5, 1<<31 - 1, 0}, true},
		{"spread at the limit", []Size{0, 1 << 31, 5, 1 << 31, 0}, false},
		{"big keys, wide spread", []Size{math.MaxInt64, math.MaxInt64 - 3, math.MaxInt64, 1 << 40}, false},
		{"big keys within spread", []Size{math.MaxInt64, math.MaxInt64 - 3, math.MaxInt64, math.MaxInt64 - 1<<30}, true},
		{"negative key", []Size{2, -1, 2, 0}, false},
		{"extremes", []Size{math.MinInt64, math.MaxInt64, 0, math.MinInt64}, false},
	}
	for _, c := range cases {
		if _, ok := packTop(c.keys); ok != (c.packed && bits.UintSize == 64) {
			t.Errorf("%s: packTop ok = %v, want %v", c.name, ok, c.packed)
		}
		if got, want := DescendingOrder(c.keys), descendingRef(c.keys); !slices.Equal(got, want) {
			t.Errorf("%s: DescendingOrder(%v) = %v, want %v", c.name, c.keys, got, want)
		}
	}
}

// TestDescendingOrderPackedAllocatesOnlyResult guards the packed path's
// reuse of the result slice: a separate packed buffer per sort would
// show up as a second allocation.
func TestDescendingOrderPackedAllocatesOnlyResult(t *testing.T) {
	keys := make([]Size, 120)
	for i := range keys {
		keys[i] = Size((i * 7919) % 97)
	}
	if allocs := testing.AllocsPerRun(50, func() { DescendingOrder(keys) }); allocs != 1 {
		t.Errorf("DescendingOrder allocs = %v, want 1 (the result)", allocs)
	}
}

// FuzzDescendingOrder checks DescendingOrder against the comparator
// reference. The first byte picks how the rest become keys, so both
// paths and their boundary get exercised: small keys with many ties
// and zeros, keys scaled to straddle the 2^31 spread limit, keys near
// MaxInt64, and keys that go negative.
func FuzzDescendingOrder(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 5})
	f.Add([]byte{0, 3, 3, 3, 3})
	f.Add([]byte{0, 0, 8, 0, 16, 8})
	f.Add([]byte{1, 0, 255, 7, 255, 0})
	f.Add([]byte{2, 0, 255, 7, 255, 0})
	f.Add([]byte{3, 1, 2, 1, 0, 200})
	f.Add([]byte{4, 128, 0, 255, 127, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mode, raw := data[0]%5, data[1:]
		keys := make([]Size, len(raw))
		for i, b := range raw {
			x := Size(b)
			switch mode {
			case 0: // few distinct values: ties and zeros
				x %= 8
			case 1: // spread up to 255·(2^31−1)/255: packed
				x *= (1<<31 - 1) / 255
			case 2: // spread up to 255·(2^31/255 + 1) > 2^31
				x *= 1<<31/255 + 1
			case 3: // near MaxInt64: packed for small spread
				x = math.MaxInt64 - x
			case 4: // around zero: any negative key takes the comparator
				x -= 128
			}
			keys[i] = x
		}
		if got, want := DescendingOrder(keys), descendingRef(keys); !slices.Equal(got, want) {
			t.Fatalf("mode %d: DescendingOrder(%v) = %v, want %v", mode, keys, got, want)
		}
	})
}
