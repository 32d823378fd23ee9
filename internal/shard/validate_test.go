package shard

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"storagesched/internal/engine"
)

// The Validate satellite, both directions: plans with out-of-range
// placements (negative, or >= K — hand-edited or corrupted plan files)
// are rejected with a clean error everywhere a plan is consumed, and
// every plan NewPlan builds validates.
func TestPlanValidate(t *testing.T) {
	bad := []*Plan{
		nil,
		{K: 0, Shards: []int{0}},
		{K: 2, Shards: []int{0, -1}},
		{K: 2, Shards: []int{0, 2}},
		{K: 3, Shards: []int{0, 1, 7}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d validated: %+v", i, p)
		}
	}
	good := []*Plan{
		{K: 1, Shards: nil},
		{K: 2, Shards: []int{1, 0, 1}},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("good plan %d rejected: %v", i, err)
		}
	}
	items := make([]engine.BatchItem, 9)
	for _, policy := range []Policy{RoundRobin, HashAffine} {
		for k := 1; k <= 4; k++ {
			p, err := NewPlan(k, policy, items)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(); err != nil {
				t.Errorf("NewPlan(%d, %v) built an invalid plan: %v", k, policy, err)
			}
		}
	}
}

// A corrupt plan must fail MergeJSONL with the validation error, not
// panic inside Locals — the regression this guards was an
// index-out-of-range crash.
func TestMergeJSONLRejectsCorruptPlans(t *testing.T) {
	for _, plan := range []*Plan{
		{K: 2, Policy: RoundRobin, Shards: []int{0, 2}},
		{K: 2, Policy: RoundRobin, Shards: []int{-1, 0}},
	} {
		var out bytes.Buffer
		readers := make([]io.Reader, plan.K)
		for i := range readers {
			readers[i] = strings.NewReader("")
		}
		err := MergeJSONL(&out, plan, readers, nil)
		if err == nil || !strings.Contains(err.Error(), "want [0,2)") {
			t.Errorf("MergeJSONL(%v) error = %v, want placement-range validation", plan.Shards, err)
		}
	}
}
