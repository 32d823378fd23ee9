package shard

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"storagesched/internal/engine"
	"storagesched/internal/gen"
)

// testItems is a mixed workload: instances, graphs, a duplicated
// instance (hash-affinity target) and a per-item source error.
func testItems(t *testing.T) []engine.BatchItem {
	t.Helper()
	return []engine.BatchItem{
		{Instance: gen.Uniform(30, 3, 1)},
		{Graph: gen.LayeredDAG(3, 6, 3, 2)},
		{Err: errors.New("shard_test: broken source a")},
		{Instance: gen.EmbeddedCode(40, 4, 3)},
		{Instance: gen.Uniform(30, 3, 1)}, // duplicate of item 0
		{Graph: gen.ForkJoin(3, 3, 3, 4)},
		{Err: errors.New("shard_test: broken source b")},
		{Instance: gen.GridBatch(25, 3, 5)},
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{
		{"rr", RoundRobin}, {"round-robin", RoundRobin}, {"RoundRobin", RoundRobin},
		{"hash", HashAffine}, {"hash-affine", HashAffine}, {"affine", HashAffine},
	} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		// String forms round-trip.
		if back, err := ParsePolicy(got.String()); err != nil || back != got {
			t.Errorf("ParsePolicy(%v.String()) = %v, %v", got, back, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestNewPlanRoundRobin(t *testing.T) {
	items := testItems(t)
	plan, err := NewPlan(3, RoundRobin, items)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range plan.Shards {
		if s != i%3 {
			t.Errorf("item %d on shard %d, want %d", i, s, i%3)
		}
	}
	counts := plan.Counts()
	if counts[0]+counts[1]+counts[2] != len(items) {
		t.Errorf("counts %v do not sum to %d", counts, len(items))
	}
	// Locals lists each shard's global indexes in global order.
	want := [][]int{{0, 3, 6}, {1, 4, 7}, {2, 5}}
	if got := plan.Locals(); !reflect.DeepEqual(got, want) {
		t.Errorf("Locals = %v, want %v", got, want)
	}
}

func TestNewPlanHashAffineRoutesDuplicatesTogether(t *testing.T) {
	items := testItems(t)
	plan, err := NewPlan(3, HashAffine, items)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Shards[0] != plan.Shards[4] {
		t.Errorf("duplicate items on shards %d and %d, want equal", plan.Shards[0], plan.Shards[4])
	}
	// Error items fall back to round-robin positions.
	if plan.Shards[2] != 2%3 || plan.Shards[6] != 6%3 {
		t.Errorf("error items on shards %d,%d, want round-robin 2,0", plan.Shards[2], plan.Shards[6])
	}
	// Determinism: the same inputs replan identically.
	again, err := NewPlan(3, HashAffine, items)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, again) {
		t.Error("replanning the same items diverged")
	}
}

func TestNewPlanRejectsBadInputs(t *testing.T) {
	if _, err := NewPlan(0, RoundRobin, nil); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, err := NewPlan(2, Policy(42), testItems(t)); err == nil {
		t.Error("unknown policy accepted")
	}
}

// MergeJSONL interleaves shard outputs back into plan order, rewriting
// each line with its global index.
func TestMergeJSONL(t *testing.T) {
	// 5 items on 2 shards: plan order 0→s0, 1→s1, 2→s0, 3→s0, 4→s1.
	plan := &Plan{K: 2, Policy: RoundRobin, Shards: []int{0, 1, 0, 0, 1}}
	s0 := "local0\nlocal1\n\nlocal2\n" // blank lines are skipped
	s1 := "localA\nlocalB\n"
	var out bytes.Buffer
	err := MergeJSONL(&out, plan, []io.Reader{strings.NewReader(s0), strings.NewReader(s1)},
		func(line []byte, g int) ([]byte, error) {
			return []byte(fmt.Sprintf("%s@%d", line, g)), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	want := "local0@0\nlocalA@1\nlocal1@2\nlocal2@3\nlocalB@4\n"
	if out.String() != want {
		t.Errorf("merged:\n%q\nwant:\n%q", out.String(), want)
	}
}

func TestMergeJSONLStrictness(t *testing.T) {
	plan := &Plan{K: 2, Policy: RoundRobin, Shards: []int{0, 1, 0}}

	// Short shard output: error naming the shard and position.
	var out bytes.Buffer
	err := MergeJSONL(&out, plan, []io.Reader{strings.NewReader("a\n"), strings.NewReader("b\n")}, nil)
	if err == nil || !strings.Contains(err.Error(), "ended before") {
		t.Errorf("short output: err = %v", err)
	}

	// Extra lines: also an error.
	out.Reset()
	err = MergeJSONL(&out, plan, []io.Reader{strings.NewReader("a\nc\nextra\n"), strings.NewReader("b\n")}, nil)
	if err == nil || !strings.Contains(err.Error(), "beyond its plan slice") {
		t.Errorf("extra output: err = %v", err)
	}

	// Wrong shard count.
	if err := MergeJSONL(&out, plan, []io.Reader{strings.NewReader("")}, nil); err == nil {
		t.Error("shard count mismatch accepted")
	}
	// Rewrite failures propagate.
	err = MergeJSONL(&out, plan, []io.Reader{strings.NewReader("a\nc\n"), strings.NewReader("b\n")},
		func([]byte, int) ([]byte, error) { return nil, errors.New("bad line") })
	if err == nil || !strings.Contains(err.Error(), "bad line") {
		t.Errorf("rewrite error: err = %v", err)
	}
}
