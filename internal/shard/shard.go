// Package shard coordinates cluster-scale sweeps: it splits a batch of
// work items into K deterministic shards, each swept on its own — by a
// `schedcli sweepbatch` process per shard, or by one engine.SweepBatch
// per Locals slice — and merges the per-shard JSONL outputs back into
// input order, so a sharded run is byte-identical to an unsharded one.
//
// Two placement policies exist. RoundRobin deals items out cyclically,
// balancing counts. HashAffine places items by their content hash
// (the same canonical bytes internal/cache keys on), so identical
// items always land on the same shard — shard-local caches stay hot
// and repeated instances never warm two shards with the same front.
//
// The merge side is deliberately simple: because the plan is
// deterministic, the item at global position g lives at a known
// position of a known shard, and each shard emits its slice in order.
// Merging is therefore a sequential walk of the plan, pulling the next
// line from the owning shard's output.
package shard

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"storagesched/internal/cache"
	"storagesched/internal/engine"
)

// Policy selects how items are placed on shards.
type Policy int

const (
	// RoundRobin deals items out cyclically: item i goes to shard
	// i mod K. Balances item counts regardless of content.
	RoundRobin Policy = iota
	// HashAffine places each item by its content hash modulo K, so
	// identical items always share a shard (hot shard-local caches).
	// Items with no content (source errors) fall back to round-robin.
	HashAffine
)

// String implements fmt.Stringer; the forms parse back via
// ParsePolicy.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "rr"
	case HashAffine:
		return "hash"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy parses a policy name as accepted on command lines.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "rr", "roundrobin", "round-robin":
		return RoundRobin, nil
	case "hash", "hash-affine", "affine":
		return HashAffine, nil
	}
	return 0, fmt.Errorf("shard: unknown policy %q (want rr | hash)", s)
}

// Plan is a deterministic placement of n items onto K shards.
type Plan struct {
	K      int
	Policy Policy
	// Shards[i] is the shard of input item i.
	Shards []int
}

// ItemHash returns the content hash used for hash-affine placement:
// the 64-bit fold of the item's canonical bytes. ok is false for items
// with no content (source errors, empty items), which the planner
// places round-robin instead.
func ItemHash(item engine.BatchItem) (uint64, bool) {
	switch {
	case item.Err != nil:
		return 0, false
	case item.Graph != nil:
		return cache.KeyFor(cache.CanonicalGraph(item.Graph), "").Hash64(), true
	case item.Instance != nil:
		return cache.KeyFor(cache.CanonicalInstance(item.Instance), "").Hash64(), true
	}
	return 0, false
}

// NewPlan places items onto k shards under the policy. The placement
// depends only on (k, policy, item contents), never on timing, so the
// same inputs always produce the same plan — on every machine of a
// cluster.
func NewPlan(k int, policy Policy, items []engine.BatchItem) (*Plan, error) {
	if k < 1 {
		return nil, fmt.Errorf("shard: k = %d, need k >= 1", k)
	}
	p := &Plan{K: k, Policy: policy, Shards: make([]int, len(items))}
	for i, item := range items {
		switch policy {
		case RoundRobin:
			p.Shards[i] = i % k
		case HashAffine:
			if h, ok := ItemHash(item); ok {
				p.Shards[i] = int(h % uint64(k))
			} else {
				p.Shards[i] = i % k
			}
		default:
			return nil, fmt.Errorf("shard: unknown policy %v", policy)
		}
	}
	return p, nil
}

// Validate checks the plan's internal consistency: K is at least 1
// and every placement is a shard in [0, K). MergeJSONL and the CLI's
// plan reader both validate before indexing by placement, so a
// hand-edited or corrupted plan file reports a clean error instead of
// panicking inside Locals.
func (p *Plan) Validate() error {
	if p == nil {
		return fmt.Errorf("shard: nil plan")
	}
	if p.K < 1 {
		return fmt.Errorf("shard: plan has k = %d, need k >= 1", p.K)
	}
	for i, s := range p.Shards {
		if s < 0 || s >= p.K {
			return fmt.Errorf("shard: item %d placed on shard %d, want [0,%d)", i, s, p.K)
		}
	}
	return nil
}

// Counts returns the number of items per shard.
func (p *Plan) Counts() []int {
	counts := make([]int, p.K)
	for _, s := range p.Shards {
		counts[s]++
	}
	return counts
}

// Locals returns, per shard, the global indexes of its items in global
// order — the shard's slice of the input, and the key to relabelling a
// shard's local output indexes back to global ones.
func (p *Plan) Locals() [][]int {
	locals := make([][]int, p.K)
	for g, s := range p.Shards {
		locals[s] = append(locals[s], g)
	}
	return locals
}

// MergeJSONL merges per-shard JSONL outputs (one line per item, in
// each shard's local order) back into global input order. For global
// position g the next line of shard plan.Shards[g] is passed to
// rewrite together with g — the caller relabels its local index to the
// global one (nil rewrite passes lines through) — and written to w
// with a trailing newline.
//
// The merge is strict: a shard output with fewer or more non-empty
// lines than its plan slice is an error, because a silent mismatch
// would misattribute every later front to the wrong item.
func MergeJSONL(w io.Writer, plan *Plan, shardOutputs []io.Reader, rewrite func(line []byte, globalIndex int) ([]byte, error)) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	if len(shardOutputs) != plan.K {
		return fmt.Errorf("shard: %d outputs for %d shards", len(shardOutputs), plan.K)
	}
	scanners := make([]*bufio.Scanner, plan.K)
	for s, r := range shardOutputs {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
		scanners[s] = sc
	}
	next := func(s int) ([]byte, error) {
		sc := scanners[s]
		for sc.Scan() {
			line := sc.Bytes()
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			return line, nil
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("shard: reading shard %d output: %w", s, err)
		}
		return nil, nil
	}
	bw := bufio.NewWriter(w)
	for g, s := range plan.Shards {
		line, err := next(s)
		if err != nil {
			return err
		}
		if line == nil {
			return fmt.Errorf("shard: shard %d output ended before item %d", s, g)
		}
		if rewrite != nil {
			if line, err = rewrite(line, g); err != nil {
				return fmt.Errorf("shard: rewriting item %d (shard %d): %w", g, s, err)
			}
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	for s := range scanners {
		if line, err := next(s); err != nil {
			return err
		} else if line != nil {
			return fmt.Errorf("shard: shard %d output has lines beyond its plan slice", s)
		}
	}
	return bw.Flush()
}
