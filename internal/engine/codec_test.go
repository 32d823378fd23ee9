package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"storagesched/internal/bounds"
	"storagesched/internal/cache"
	"storagesched/internal/core"
	"storagesched/internal/gen"
	"storagesched/internal/hardness"
	"storagesched/internal/model"
)

// codecCorpus is one item of every gen instance and DAG family, plus
// the Section 4 hardness instances, whose fronts are full of ties.
func codecCorpus() []BatchItem {
	var items []BatchItem
	for k, fam := range gen.Families() {
		items = append(items, BatchItem{Instance: fam.Gen(30, 4, int64(k+1))})
	}
	for k, fam := range gen.DAGFamilies() {
		items = append(items, BatchItem{Graph: fam.Gen(3, 30, int64(k+1))})
	}
	return append(items,
		BatchItem{Instance: hardness.Lemma1Instance(4)},
		BatchItem{Instance: hardness.Lemma3Instance(10, 1)},
	)
}

// midpointPlanner plans the geometric midpoint of every pair of
// neighbouring grid points: a refinement grid of inexact floats.
func midpointPlanner(grid []float64) Planner {
	var mids []float64
	for i := 1; i < len(grid); i++ {
		mids = append(mids, math.Sqrt(grid[i-1]*grid[i]))
	}
	return fixedPlanner(mids...)
}

// coldEntries sweeps items through a cold DirStore-backed cache (with
// a refinement phase when plan is non-nil) and returns the emitted
// results and every entry the sweep wrote.
func coldEntries(t *testing.T, dir string, items []BatchItem, cfg BatchConfig, plan Planner) ([]BatchResult, map[cache.Key][]byte) {
	t.Helper()
	c, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = c
	results := sweepItems(t, items, cfg, plan)
	entries := storeEntries(t, dir)
	if len(entries) == 0 {
		t.Fatal("the cold sweep wrote no entries")
	}
	return results, entries
}

// sweepItems is runBatch, refined when plan is non-nil.
func sweepItems(t *testing.T, items []BatchItem, cfg BatchConfig, plan Planner) []BatchResult {
	t.Helper()
	if plan == nil {
		return runBatch(t, items, cfg)
	}
	var got []BatchResult
	err := SweepBatchRefined(context.Background(), itemSeq(items), cfg, plan, func(br BatchResult) error {
		got = append(got, br)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestDecodeResultAcceptsEveryColdEntry: every entry a cold sweep
// writes — every instance and DAG family, SkipSBO and SkipRLS configs,
// reordered ties, refined grids — decodes, passes the checks, equals
// the reference decode, and is served on the warm run with no
// rejection.
func TestDecodeResultAcceptsEveryColdEntry(t *testing.T) {
	geo := mustGrid(GeometricGrid(0.5, 8, 8))
	instances := codecCorpus()[:len(gen.Families())]
	cases := []struct {
		name  string
		items []BatchItem
		cfg   Config
		plan  Planner
	}{
		{"default", codecCorpus(), Config{Deltas: geo}, nil},
		{"skip-sbo", codecCorpus(), Config{Deltas: geo, SkipSBO: true}, nil},
		// Graph items cannot skip RLS, so this config sweeps instances.
		{"skip-rls", instances, Config{Deltas: geo, SkipRLS: true}, nil},
		{"ties", codecCorpus(), Config{Deltas: mustGrid(LinearGrid(2, 6, 5)), Ties: []core.TieBreak{core.TieBottomLevel, core.TieSPT, core.TieLPT}}, nil},
		{"refined", codecCorpus(), Config{Deltas: mustGrid(GeometricGrid(0.5, 8, 4))}, midpointPlanner(mustGrid(GeometricGrid(0.5, 8, 4)))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := BatchConfig{Config: tc.cfg}
			cfg.Workers = 2
			cold, entries := coldEntries(t, dir, tc.items, cfg, tc.plan)
			for name, data := range entries {
				got, err := decodeResult(data)
				if err != nil {
					t.Fatalf("%s: cold entry rejected: %v\n%s", name, err, data)
				}
				ref, err := refDecodeResult(data)
				if err == nil {
					err = refCheck(ref)
				}
				if err != nil {
					t.Fatalf("%s: reference rejects a cold entry: %v", name, err)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("%s: decode differs from the reference\n got %+v\nwant %+v", name, got, ref)
				}
			}
			c, err := cache.New(cache.Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Cache = c
			warm := sweepItems(t, tc.items, cfg, tc.plan)
			for i, br := range warm {
				if !br.CacheHit {
					t.Errorf("item %d: warm run missed", i)
				}
				want, _ := appendResult(nil, cold[i].Result)
				got, _ := appendResult(nil, br.Result)
				if !bytes.Equal(got, want) {
					t.Errorf("item %d: warm result differs from the cold one", i)
				}
				if ref, err := refEncodeResult(cold[i].Result); err != nil || !bytes.Equal(want, ref) {
					t.Errorf("item %d: entry differs from json.Marshal's (%v)\n got %s\nwant %s", i, err, want, ref)
				}
			}
			if st := c.Stats(); st.Rejected != 0 || st.Misses != 0 {
				t.Errorf("warm run: %d rejected, %d misses, want none", st.Rejected, st.Misses)
			}
		})
	}
}

// codecEntry is a cold entry with SBO and RLS runs, BLevel copies and
// a front of several points, as its wire struct.
func codecEntry(t *testing.T) (wireResult, *model.Instance, Config) {
	t.Helper()
	in := gen.Uniform(30, 4, 7)
	cfg := Config{Deltas: mustGrid(GeometricGrid(0.5, 8, 8)), Workers: 1}
	res, err := Sweep(context.Background(), in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) < 3 {
		t.Fatalf("front has %d points, the corruptions need 3", len(res.Front))
	}
	data, err := appendResult(nil, res)
	if err != nil {
		t.Fatal(err)
	}
	var wr wireResult
	if err := json.Unmarshal(data, &wr); err != nil {
		t.Fatal(err)
	}
	return wr, in, cfg
}

// nonWitness returns the index of a successful run of algorithm alg
// that witnesses no front point.
func nonWitness(t *testing.T, wr *wireResult, alg Algorithm) int {
	t.Helper()
	for i, r := range wr.Runs {
		witness := false
		for _, p := range wr.Front {
			witness = witness || p.RunIndex == i
		}
		if r.Algorithm == alg && r.Err == "" && !witness {
			return i
		}
	}
	t.Fatalf("no %s run outside the front", alg)
	return -1
}

// TestDecodeResultRejectsEachCorruption: each check of the decoder
// rejects its own hand-made corruption of a valid entry, naming it.
func TestDecodeResultRejectsEachCorruption(t *testing.T) {
	base, _, _ := codecEntry(t)
	marshal := func(wr wireResult) []byte {
		data, err := json.Marshal(wr)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	valid := marshal(base)
	if _, err := decodeResult(valid); err != nil {
		t.Fatalf("the valid entry is rejected: %v", err)
	}
	edit := func(f func(wr *wireResult)) []byte {
		wr := base
		wr.Runs = append([]wireRun(nil), base.Runs...)
		wr.Front = append([]wireFrontPoint(nil), base.Front...)
		f(&wr)
		return marshal(wr)
	}
	text := func(old, new string) []byte {
		if !bytes.Contains(valid, []byte(old)) {
			t.Fatalf("the entry holds no %s", old)
		}
		return bytes.Replace(valid, []byte(old), []byte(new), 1)
	}
	// cut removes from old up to (not including) the next end byte.
	cut := func(old string, end byte) []byte {
		i := bytes.Index(valid, []byte(old))
		if i < 0 {
			t.Fatalf("the entry holds no %s", old)
		}
		j := i + bytes.IndexByte(valid[i:], end)
		return append(append([]byte(nil), valid[:i]...), valid[j:]...)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"truncated", valid[:len(valid)-1], "unexpected end"},
		{"trailing data", append(append([]byte(nil), valid...), " {}"...), "data after the entry"},
		{"not an object", []byte(`[1]`), `want {"v":`},
		{"version", text(`{"v":1`, `{"v":2`), "version 2"},
		{"unknown key", text(`"v":1`, `"v":1,"w":0`), `want ,"bounds"`},
		{"duplicate key", text(`"v":1`, `"v":1,"v":1`), `want ,"bounds"`},
		{"case-folded key", text(`"v":1`, `"V":1`), `want {"v":`},
		{"missing key", cut(`,"SumCiLB":`, '}'), `want ,"SumCiLB":`},
		{"missing bounds", []byte(`{"v":1}`), `want ,"bounds"`},
		{"null", text(`"front":[`, `"front":null,"x":[`), `want }`},
		{"whitespace", text(`"v":1`, `"v": 1`), "malformed integer"},
		{"fractional integer", text(`"run":`, `"run":0.5,"x":`), "non-integral"},
		{"integer overflow", text(`"M":`, `"M":99999999999999999999,"x":`), "out of range"},
		{"leading zero", text(`"cmax":`, `"cmax":0`), "malformed integer"},
		{"lone surrogate", text(`},{"alg":`, `,"err":"\ud800"},{"alg":`), "unpaired surrogate"},
		{"high surrogate, no low", text(`},{"alg":`, `,"err":"\ud800\u0041"},{"alg":`), "unpaired surrogate"},
		{"invalid UTF-8", text(`},{"alg":`, ",\"err\":\"\xff\"},{\"alg\":"), "invalid UTF-8"},
		{"CmaxLB inconsistent", edit(func(wr *wireResult) { wr.Bounds.CmaxLB-- }), "inconsistent bounds"},
		{"MmaxLB inconsistent", edit(func(wr *wireResult) { wr.Bounds.MmaxLB++ }), "inconsistent bounds"},
		{"run below CmaxLB", edit(func(wr *wireResult) {
			wr.Runs[nonWitness(t, wr, AlgSBO)].Cmax = wr.Bounds.CmaxLB - 1
		}), "below the lower bounds"},
		{"run below MmaxLB", edit(func(wr *wireResult) {
			wr.Runs[nonWitness(t, wr, AlgRLS)].Mmax = wr.Bounds.MmaxLB - 1
		}), "below the lower bounds"},
		{"RLS above the Lemma 4 cap", edit(func(wr *wireResult) {
			i := nonWitness(t, wr, AlgRLS)
			cap, err := core.MemCap(wr.Runs[i].Delta, wr.Bounds.MmaxLB)
			if err != nil {
				t.Fatal(err)
			}
			wr.Runs[i].Mmax = cap + 1
		}), "above the Lemma 4 cap"},
		{"RLS cap overflows int64", edit(func(wr *wireResult) {
			wr.Runs[nonWitness(t, wr, AlgRLS)].Delta = math.MaxFloat64
		}), "memory cap"},
		{"witness out of range", edit(func(wr *wireResult) { wr.Front[0].RunIndex = len(wr.Runs) }), "out of range"},
		{"negative witness", edit(func(wr *wireResult) { wr.Front[0].RunIndex = -1 }), "out of range"},
		{"failed witness", edit(func(wr *wireResult) { wr.Runs[wr.Front[1].RunIndex].Err = "boom" }), "failed run"},
		{"point off its witness", edit(func(wr *wireResult) { wr.Front[1].Cmax++ }), "its witness run"},
		{"not monotone", edit(func(wr *wireResult) { wr.Front[0], wr.Front[1] = wr.Front[1], wr.Front[0] }), "not strictly monotone"},
		{"duplicate point", edit(func(wr *wireResult) { wr.Front[1] = wr.Front[0] }), "not strictly monotone"},
		{"point missing", edit(func(wr *wireResult) { wr.Front = wr.Front[:len(wr.Front)-1] }), "missing from the front"},
		{"no front", edit(func(wr *wireResult) { wr.Front = nil }), "missing from the front"},
		{"dominated point", edit(func(wr *wireResult) {
			// Give a run outside the front the value of a point
			// nudged up in Mmax, and add it: it is dominated.
			i := nonWitness(t, wr, AlgSBO)
			p := wr.Front[1]
			wr.Runs[i].Cmax, wr.Runs[i].Mmax = p.Cmax, p.Mmax+1
			wr.Front = append(wr.Front[:2], append([]wireFrontPoint{{Cmax: p.Cmax, Mmax: p.Mmax + 1, RunIndex: i}}, wr.Front[2:]...)...)
		}), "not strictly monotone"},
		{"witness not the first", edit(func(wr *wireResult) {
			// An earlier run outside the front takes the last
			// point's value.
			last := wr.Front[len(wr.Front)-1]
			i := nonWitness(t, wr, wr.Runs[last.RunIndex].Algorithm)
			if i > last.RunIndex {
				t.Fatalf("run %d outside the front comes after the last witness %d", i, last.RunIndex)
			}
			wr.Runs[i].Cmax, wr.Runs[i].Mmax = last.Cmax, last.Mmax
		}), "not the first"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeResult(tc.data)
			if err == nil {
				t.Fatalf("accepted:\n%s", tc.data)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rejected for %q, want %q", err, tc.want)
			}
			if CheckCachedResult(tc.data) == nil {
				t.Fatal("CheckCachedResult accepts what decodeResult rejects")
			}
		})
	}
}

// TestDecodeResultAcceptsEveryEscape: the decoder takes every string
// escape json.Marshal writes and a float in exponent form.
func TestDecodeResultAcceptsEveryEscape(t *testing.T) {
	msg := "δ <&> \"quoted\" \\ \n\t\x01 \u2028 \U0001F600 \xff"
	b := bounds.Record{M: 2, WorkOverM: 5, MaxP: 3, CriticalPath: 3, CmaxLB: 5, MemOverM: 4, MaxS: 6, MmaxLB: 6}
	res := &Result{Runs: []Run{{Algorithm: AlgRLS, Delta: 3, Err: errors.New(msg)}, {Delta: 1e-7}}, Bounds: b}
	res.Runs[1].Value = model.Value{Cmax: b.CmaxLB, Mmax: b.MmaxLB}
	res.Front = AssembleFront(res.Runs)
	data, err := appendResult(nil, res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`\u003c`)) || !bytes.Contains(data, []byte(`\ufffd`)) || !bytes.Contains(data, []byte(`1e-7`)) {
		t.Fatalf("the entry lacks an escape or the exponent: %s", data)
	}
	got, err := decodeResult(data)
	if err != nil {
		t.Fatalf("rejected %s: %v", data, err)
	}
	want, err := refDecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode %+v, reference %+v", got, want)
	}
}

// TestCheckFrontIsAssembleFront: on random run lists with many equal
// and failed runs, checkFront accepts a front exactly when it equals
// AssembleFront, whatever the front was mutated into.
func TestCheckFrontIsAssembleFront(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	accepted, rejected := 0, 0
	for trial := 0; trial < 20000; trial++ {
		runs := make([]Run, 1+rng.Intn(8))
		for i := range runs {
			runs[i].Value = model.Value{Cmax: int64(rng.Intn(4)), Mmax: int64(rng.Intn(4))}
			if rng.Intn(5) == 0 {
				runs[i].Err = errForTest
			}
		}
		front := AssembleFront(runs)
		switch rng.Intn(6) {
		case 0: // unchanged
		case 1:
			if len(front) > 0 {
				k := rng.Intn(len(front))
				front = append(front[:k:k], front[k+1:]...)
			}
		case 2:
			i := rng.Intn(len(runs))
			front = append(front, FrontPoint{Value: runs[i].Value, RunIndex: i})
		case 3:
			if len(front) > 0 {
				front[rng.Intn(len(front))].RunIndex = rng.Intn(len(runs))
			}
		case 4:
			if len(front) > 0 {
				i := rng.Intn(len(runs))
				front[rng.Intn(len(front))] = FrontPoint{Value: runs[i].Value, RunIndex: i}
			}
		case 5:
			if len(front) > 1 {
				front[0], front[1] = front[1], front[0]
			}
		}
		want := reflect.DeepEqual(front, AssembleFront(runs))
		if got := checkFront(runs, front) == nil; got != want {
			t.Fatalf("runs %+v front %+v: checkFront accepts %v, equals AssembleFront %v", runs, front, got, want)
		}
		if want {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted < 1000 || rejected < 1000 {
		t.Fatalf("%d accepted, %d rejected: the mutations miss a side", accepted, rejected)
	}
}

// TestCheckLayoutRejectsMismatches: admission holds a cached Result to
// the item's m and job layout, the BLevel copy slot included.
func TestCheckLayoutRejectsMismatches(t *testing.T) {
	base, in, cfg := codecEntry(t)
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	jobs, slots, err := buildJobs(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	twin, rls := -1, -1
	for _, j := range jobs {
		if j.twin >= 0 {
			twin = j.twin
		}
		if j.alg == AlgRLS && j.tie == core.TieByID {
			rls = j.slot
		}
	}
	if twin < 0 || rls < 0 {
		t.Fatal("the layout has no BLevel copy slot or no RLS(ByID) slot")
	}
	fresh := func() *Result {
		res, err := decodeResult(data)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if err := checkLayout(fresh(), in.M, jobs, slots); err != nil {
		t.Fatalf("the matching layout is rejected: %v", err)
	}
	cases := []struct {
		name  string
		edit  func(res *Result) int
		slots int
	}{
		{"m", func(*Result) int { return in.M + 1 }, slots},
		{"run count", func(*Result) int { return in.M }, slots + 1},
		{"algorithm", func(res *Result) int { res.Runs[0].Algorithm = AlgRLS; return in.M }, slots},
		{"delta", func(res *Result) int { res.Runs[0].Delta *= 2; return in.M }, slots},
		{"tie", func(res *Result) int { res.Runs[rls].Tie = core.TieSPT; return in.M }, slots},
		{"BLevel copy", func(res *Result) int { res.Runs[twin].Tie = core.TieLPT; return in.M }, slots},
	}
	for _, tc := range cases {
		res := fresh()
		m := tc.edit(res)
		if err := checkLayout(res, m, jobs, tc.slots); err == nil {
			t.Errorf("%s mismatch accepted", tc.name)
		}
	}
}

// TestRejectedEntryCountsAsMiss plants a well-formed entry whose front
// point is off its witness, in the disk tier and then in the memory
// tier. Each time the item recomputes to the cold bytes, the hit turns
// into a miss and a rejection, and the write-back heals the entry.
func TestRejectedEntryCountsAsMiss(t *testing.T) {
	in := gen.Uniform(30, 4, 7)
	cfg := Config{Deltas: mustGrid(GeometricGrid(0.5, 8, 8)), Workers: 1}
	key := cache.KeyFor(cache.CanonicalInstance(in), configFingerprint(cfg, false))
	items := []BatchItem{{Instance: in}}
	dir := t.TempDir()

	c, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := encodeAll(t, runBatch(t, items, BatchConfig{Config: cfg, Cache: c}))[0]
	bad := bytes.Replace(want, []byte(`"front":[{"cmax":`), []byte(`"front":[{"cmax":1`), 1)
	if bytes.Equal(bad, want) {
		t.Fatal("the corruption did not apply")
	}
	plant, err := cache.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := plant.Put(key, bad); err != nil {
		t.Fatal(err)
	}

	// Disk tier: a fresh cache reads the planted entry from the store.
	c2, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	check := func(c *cache.Cache, want cache.Stats) {
		t.Helper()
		st := c.Stats()
		want.MemBytes = st.MemBytes
		if st != want {
			t.Errorf("stats %+v, want %+v", st, want)
		}
	}
	results := runBatch(t, items, BatchConfig{Config: cfg, Cache: c2})
	if results[0].CacheHit || !bytes.Equal(encodeAll(t, results)[0], want) {
		t.Fatal("the rejected entry was served, or the recompute differs")
	}
	check(c2, cache.Stats{Misses: 1, DiskHits: 1, Rejected: 1, Puts: 1})
	if data := storeEntries(t, dir)[key]; !bytes.Equal(data, want) {
		t.Error("the write-back did not heal the disk entry")
	}

	// Memory tier: plant the entry where the next Get finds it first.
	c2.Put(key, bad)
	results = runBatch(t, items, BatchConfig{Config: cfg, Cache: c2})
	if results[0].CacheHit || !bytes.Equal(encodeAll(t, results)[0], want) {
		t.Fatal("the rejected memory entry was served, or the recompute differs")
	}
	check(c2, cache.Stats{Misses: 2, MemHits: 1, DiskHits: 1, Rejected: 2, Puts: 3})

	// Both tiers are healed: the next run hits.
	if !runBatch(t, items, BatchConfig{Config: cfg, Cache: c2})[0].CacheHit {
		t.Error("the healed entry missed")
	}
	check(c2, cache.Stats{Hits: 1, Misses: 2, MemHits: 2, DiskHits: 1, Rejected: 2, Puts: 3})
	if c2.Len() != 1 {
		t.Errorf("memory tier holds %d entries, want 1", c2.Len())
	}
}

// TestAdmissionRejectsEntryOfAnotherItem: an entry that passes every
// entry check but belongs to another grid or another m is rejected at
// admission, counted, and recomputed.
func TestAdmissionRejectsEntryOfAnotherItem(t *testing.T) {
	in := gen.Uniform(30, 4, 7)
	other := &model.Instance{M: 3, Tasks: in.Tasks}
	cfg := Config{Deltas: mustGrid(GeometricGrid(0.5, 8, 8)), Workers: 1}
	coarse := Config{Deltas: mustGrid(GeometricGrid(0.5, 8, 4)), Workers: 1}
	cases := []struct {
		name string
		from BatchItem
		cfg  Config
	}{
		{"grid", BatchItem{Instance: in}, coarse},
		{"m", BatchItem{Instance: other}, cfg},
	}
	want := encodeAll(t, runBatch(t, []BatchItem{{Instance: in}}, BatchConfig{Config: cfg}))[0]
	for _, tc := range cases {
		c, err := cache.New(cache.Config{})
		if err != nil {
			t.Fatal(err)
		}
		foreign := encodeAll(t, runBatch(t, []BatchItem{tc.from}, BatchConfig{Config: tc.cfg}))[0]
		if err := CheckCachedResult(foreign); err != nil {
			t.Fatalf("%s: the foreign entry fails the entry checks: %v", tc.name, err)
		}
		c.Put(cache.KeyFor(cache.CanonicalInstance(in), configFingerprint(cfg, false)), foreign)
		results := runBatch(t, []BatchItem{{Instance: in}}, BatchConfig{Config: cfg, Cache: c})
		if results[0].CacheHit || !bytes.Equal(encodeAll(t, results)[0], want) {
			t.Errorf("%s: the foreign entry was served", tc.name)
		}
		if st := c.Stats(); st.Rejected != 1 || st.Hits != 0 {
			t.Errorf("%s: stats %+v, want one rejection and no hit", tc.name, st)
		}
	}
}

// TestBatchKeysUseEachItemsFingerprint: in a mixed batch the shared
// per-kind fingerprints and the per-item ones of overrides key every
// entry exactly as configFingerprint of the item's effective config.
func TestBatchKeysUseEachItemsFingerprint(t *testing.T) {
	base := Config{Deltas: mustGrid(GeometricGrid(0.5, 8, 6)), Workers: 2}
	over := Config{Deltas: mustGrid(GeometricGrid(2, 8, 3)), Ties: DefaultTies[:2]}
	items := cacheMixedItems()[:4]
	items = append(items,
		BatchItem{Instance: gen.Uniform(20, 3, 9), Override: &over},
		BatchItem{Graph: gen.LayeredDAG(3, 5, 3, 9), Override: &over},
	)
	want := map[cache.Key]bool{}
	for _, it := range items {
		cfg := base
		if it.Override != nil {
			cfg = *it.Override
		}
		var key cache.Key
		if it.Graph != nil {
			key = cache.KeyFor(cache.CanonicalGraph(it.Graph), configFingerprint(cfg, true))
		} else {
			key = cache.KeyFor(cache.CanonicalInstance(it.Instance), configFingerprint(cfg, false))
		}
		want[key] = true
	}
	dir := t.TempDir()
	_, entries := coldEntries(t, dir, items, BatchConfig{Config: base}, nil)
	if len(entries) != len(want) {
		t.Errorf("the batch wrote %d entries, want %d", len(entries), len(want))
	}
	for key := range entries {
		if !want[key] {
			t.Errorf("entry %s is not keyed by its item's fingerprint", key)
		}
	}
}

// FuzzDecodeResult checks the decoder against the reflective reference:
// it never accepts an entry the reference decoder and checks reject,
// it decodes what it accepts exactly as the reference does, and it
// accepts every entry the encoder would write.
func FuzzDecodeResult(f *testing.F) {
	for _, items := range [][]BatchItem{codecCorpus()[:2], codecCorpus()[len(gen.Families()):][:1]} {
		cfg := BatchConfig{Config: Config{Deltas: mustGrid(GeometricGrid(0.5, 8, 6)), Workers: 1}}
		for _, data := range encodeAll(f, runBatch(f, items, cfg)) {
			f.Add(data)
		}
	}
	f.Add([]byte(`{"v":1,"bounds":{"M":1,"WorkOverM":0,"MaxP":0,"CriticalPath":0,"CmaxLB":0,"MemOverM":0,"MaxS":0,"MmaxLB":0,"SumCiLB":0},"runs":[{"alg":1,"tie":0,"delta":3,"cmax":0,"mmax":0,"err":"x<😀"}]}`))
	f.Add([]byte(`{"v":1}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeResult(data)
		ref, refErr := refDecodeResult(data)
		if refErr == nil {
			refErr = refCheck(ref)
		}
		if err == nil {
			if refErr != nil {
				t.Fatalf("accepted an entry the reference rejects (%v):\n%s", refErr, data)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("decode %+v, reference %+v", got, ref)
			}
			return
		}
		if refErr == nil {
			if enc, encErr := appendResult(nil, ref); encErr == nil && bytes.Equal(enc, data) {
				t.Fatalf("rejected an entry the encoder writes (%v):\n%s", err, data)
			}
		}
	})
}

// checkAppendResult requires appendResult to write json.Marshal's
// bytes for res, or to fail where it fails, and to append to a
// non-empty buffer without touching what it holds.
func checkAppendResult(t *testing.T, res *Result) {
	t.Helper()
	want, wantErr := refEncodeResult(res)
	got, err := appendResult(nil, res)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("appendResult error %v, json.Marshal error %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("appendResult differs from json.Marshal\n got %s\nwant %s", got, want)
	}
	prefix := []byte("entry:")
	if more, _ := appendResult(prefix[:len(prefix):len(prefix)], res); !bytes.Equal(more, append(prefix, want...)) {
		t.Fatalf("appendResult onto a buffer: %s", more)
	}
}

// TestAppendResultMatchesMarshal pins the encoder's float and string
// forms against json.Marshal on the values where they are subtle: both
// sides of the 'f'/'e' switch at 1e-6 and 1e21, trimmed and untrimmed
// exponents, negative zero, the extremes of float64, every escape an
// error message can need, and the non-finite δ that is not cached.
func TestAppendResultMatchesMarshal(t *testing.T) {
	deltas := []float64{0, math.Copysign(0, -1), 1, 2.5, 1e-6, math.Nextafter(1e-6, 0), 1e-7, 1.5e-10, 1e-100,
		1e21, math.Nextafter(1e21, 0), 1e22, 1.2345e300, math.MaxFloat64, math.SmallestNonzeroFloat64, -3.75, -1e-9,
		123456789.123, 0.1 + 0.2, math.NaN(), math.Inf(1), math.Inf(-1)}
	msgs := []string{"", "plain", "<a href=\"x\">&amp;</a>", "tab\tnl\ncr\rbs\bff\f\x00\x1f\x7f", `back\slash "quote" /`,
		"\u2028\u2029 line seps", "\xff\xfe invalid \xc3", "trailing \xe2\x80", "δ ≥ 2 \U0001F600", "\ufffd literal"}
	b := bounds.Record{M: 3, WorkOverM: -4, MaxP: math.MaxInt64, CriticalPath: math.MinInt64, CmaxLB: 9, MemOverM: 0, MaxS: 1, MmaxLB: 2, SumCiLB: 77}
	for _, d := range deltas {
		for _, msg := range msgs {
			res := &Result{Bounds: b, Runs: []Run{
				{Algorithm: AlgSBO, Delta: 1, Value: model.Value{Cmax: 3, Mmax: 4}},
				{Algorithm: AlgRLS, Tie: core.TieBottomLevel, Delta: d, Value: model.Value{Cmax: -1, Mmax: math.MinInt64}, Err: errors.New(msg)},
			}}
			checkAppendResult(t, res)
			res.Front = []FrontPoint{{Value: model.Value{Cmax: 3, Mmax: 4}}, {Value: model.Value{Cmax: 5, Mmax: -2}, RunIndex: 1}}
			checkAppendResult(t, res)
		}
	}
	checkAppendResult(t, &Result{})
}

// FuzzEncodeResult is the encoder's differential oracle: a Result built
// from the fuzzer's values — any δ bits, any message bytes, any
// integers — encodes to json.Marshal's bytes for its wire struct, or
// fails exactly where json.Marshal fails.
func FuzzEncodeResult(f *testing.F) {
	f.Add(uint64(math.Float64bits(2.5)), "", []byte{2, 1, 0, 3, 7, 9, 1})
	f.Add(uint64(math.Float64bits(1e-7)), "<&>\u2028\xff", []byte{1, 1, 3})
	f.Add(uint64(math.Float64bits(1e21)), "x\x00\"\\", []byte{9, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2})
	f.Add(uint64(math.Float64bits(math.NaN())), "nan", []byte{1, 1})
	f.Add(uint64(1), "\U0001F600 tiny", []byte{3, 0, 255, 128})
	f.Fuzz(func(t *testing.T, deltaBits uint64, msg string, data []byte) {
		// next is the next data byte, 0 once they run out.
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			c := data[0]
			data = data[1:]
			return c
		}
		// value spreads a data byte over int64, extremes included.
		value := func() int64 {
			c := next()
			switch c {
			case 255:
				return math.MaxInt64
			case 254:
				return math.MinInt64
			}
			return int64(c)*int64(c)*1e9 - 1e12
		}
		res := &Result{Bounds: bounds.Record{M: int(value()), WorkOverM: value(), MaxP: value(), CriticalPath: value(),
			CmaxLB: value(), MemOverM: value(), MaxS: value(), MmaxLB: value(), SumCiLB: value()}}
		runs := int(next() % 8)
		for i := 0; i < runs; i++ {
			r := Run{Algorithm: Algorithm(next() % 3), Tie: core.TieBreak(next() % 5), Value: model.Value{Cmax: value(), Mmax: value()}}
			// Runs draw δ from the fuzzed bits, shifted per run so one
			// input covers neighbouring exponents too.
			r.Delta = math.Float64frombits(deltaBits + uint64(i)<<52)
			if c := next(); c%2 == 1 {
				r.Err = errors.New(msg[:min(len(msg), int(c))])
			}
			res.Runs = append(res.Runs, r)
		}
		for k := int(next() % 4); k > 0; k-- {
			res.Front = append(res.Front, FrontPoint{Value: model.Value{Cmax: value(), Mmax: value()}, RunIndex: int(value())})
		}
		checkAppendResult(t, res)
	})
}

// entries16 is the cache entries of one 16-item body shaped like the
// process benchmark's: per 8 items, six n=120, m=8 instances (uniform,
// embedded, anticorrelated in turn), a ~100-node layered DAG and a
// fork-join DAG, swept over the 8-point geometric grid on [0.5, 8].
func entries16(b *testing.B) [][]byte {
	b.Helper()
	families := [...]func(n, m int, seed int64) *model.Instance{gen.Uniform, gen.EmbeddedCode, gen.Anticorrelated}
	items := make([]BatchItem, 16)
	for i := range items {
		seed := int64(i + 1)
		switch i % 8 {
		case 3:
			items[i].Graph = gen.LayeredDAG(8, 25, 4, seed)
		case 7:
			items[i].Graph = gen.ForkJoin(8, 14, 6, seed)
		default:
			items[i].Instance = families[i%3](120, 8, seed)
		}
	}
	cfg := BatchConfig{Config: Config{Deltas: mustGrid(GeometricGrid(0.5, 8, 8)), Workers: 1}}
	return encodeAll(b, runBatch(b, items, cfg))
}

// benchDecode decodes the 16 entries once per iteration.
func benchDecode(b *testing.B, decode func([]byte) (*Result, error)) {
	entries := entries16(b)
	size := 0
	for _, e := range entries {
		size += len(e)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range entries {
			if _, err := decode(e); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDecodeResult_entry16 is the warm-hit decode rung: the
// single-pass decoder and every entry check, over 16 entries.
//
//	go test -run '^$' -bench BenchmarkDecodeResult -benchmem ./internal/engine
func BenchmarkDecodeResult_entry16(b *testing.B) { benchDecode(b, decodeResult) }

// BenchmarkDecodeResultReflect_entry16 is the same rung through the
// reflective reference decoder, without the checks it never had.
func BenchmarkDecodeResultReflect_entry16(b *testing.B) { benchDecode(b, refDecodeResult) }

// benchEncode encodes the Results of the 16 entries once per iteration.
func benchEncode(b *testing.B, encode func([]byte, *Result) ([]byte, error)) {
	entries := entries16(b)
	results := make([]*Result, len(entries))
	size := 0
	for i, e := range entries {
		res, err := decodeResult(e)
		if err != nil {
			b.Fatal(err)
		}
		results[i] = res
		size += len(e)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	var buf []byte
	for i := 0; i < b.N; i++ {
		for _, res := range results {
			var err error
			if buf, err = encode(buf[:0], res); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAppendResult_entry16 is the cold write-back encode rung: the
// single-pass encoder into one reused buffer, over 16 entries.
//
//	go test -run '^$' -bench 'Result_entry16' -benchmem ./internal/engine
func BenchmarkAppendResult_entry16(b *testing.B) { benchEncode(b, appendResult) }

// BenchmarkAppendResultReflect_entry16 is the same rung through the
// json.Marshal reference encoder.
func BenchmarkAppendResultReflect_entry16(b *testing.B) {
	benchEncode(b, func(_ []byte, res *Result) ([]byte, error) { return refEncodeResult(res) })
}
