package engine

import (
	"bytes"
	"context"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"storagesched/internal/cache"
	"storagesched/internal/dag"
	"storagesched/internal/gen"
)

var errForTest = errors.New("engine: synthetic run failure")

// mixedItems is a small mixed instance/graph workload with a repeated
// instance, so one batch already exercises intra-run reuse potential.
func cacheMixedItems() []BatchItem {
	return []BatchItem{
		{Instance: gen.Uniform(40, 4, 1)},
		{Graph: gen.LayeredDAG(4, 10, 3, 2)},
		{Instance: gen.EmbeddedCode(50, 8, 3)},
		{Graph: gen.ForkJoin(4, 4, 3, 4)},
		{Instance: gen.Uniform(40, 4, 1)}, // identical to item 0
	}
}

func itemSeq(items []BatchItem) func(func(BatchItem) bool) {
	return func(yield func(BatchItem) bool) {
		for _, it := range items {
			if !yield(it) {
				return
			}
		}
	}
}

// encodeAll renders every emitted Result with the cache wire encoding —
// the strictest byte-level fingerprint of what consumers observe.
func encodeAll(t testing.TB, results []BatchResult) [][]byte {
	t.Helper()
	out := make([][]byte, len(results))
	for i, br := range results {
		if br.Err != nil {
			t.Fatalf("item %d: %v", br.Index, br.Err)
		}
		data, err := appendResult(nil, br.Result)
		if err != nil {
			t.Fatalf("encoding item %d: %v", br.Index, err)
		}
		out[i] = data
	}
	return out
}

func runBatch(t testing.TB, items []BatchItem, cfg BatchConfig) []BatchResult {
	t.Helper()
	var got []BatchResult
	err := SweepBatch(context.Background(), itemSeq(items), cfg, func(br BatchResult) error {
		got = append(got, br)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("emitted %d results, want %d", len(got), len(items))
	}
	return got
}

// The tentpole acceptance test: SweepBatch output is byte-identical
// across {cache off, cold cache, warm cache} × {1, 4, NumCPU} workers,
// on a mixed instance/graph workload. Run under -race this also proves
// the cache integration races with nothing.
func TestSweepBatchCacheByteIdenticalOffColdWarm(t *testing.T) {
	grid, err := GeometricGrid(0.5, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	items := cacheMixedItems()

	var reference [][]byte
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		cfg := Config{Deltas: grid, Workers: workers}

		off := encodeAll(t, runBatch(t, items, BatchConfig{Config: cfg}))
		if reference == nil {
			reference = off
		}

		c, err := cache.New(cache.Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		coldResults := runBatch(t, items, BatchConfig{Config: cfg, Cache: c})
		cold := encodeAll(t, coldResults)
		warmResults := runBatch(t, items, BatchConfig{Config: cfg, Cache: c})
		warm := encodeAll(t, warmResults)

		for i := range reference {
			if !bytes.Equal(reference[i], off[i]) {
				t.Errorf("workers=%d item %d: cache-off output differs from reference", workers, i)
			}
			if !bytes.Equal(reference[i], cold[i]) {
				t.Errorf("workers=%d item %d: cold-cache output differs", workers, i)
			}
			if !bytes.Equal(reference[i], warm[i]) {
				t.Errorf("workers=%d item %d: warm-cache output differs", workers, i)
			}
		}
		for i, br := range warmResults {
			if !br.CacheHit {
				t.Errorf("workers=%d item %d: warm run not served from cache", workers, i)
			}
		}
		// On the cold run the duplicate of item 0 may or may not hit
		// depending on completion order; the first item never can.
		if coldResults[0].CacheHit {
			t.Errorf("workers=%d: first cold item claims a cache hit", workers)
		}
		st := c.Stats()
		if st.Hits < int64(len(items)) {
			t.Errorf("workers=%d: %d hits across cold+warm, want >= %d", workers, st.Hits, len(items))
		}
	}
}

// A corrupt or damaged on-disk entry must be treated as a miss: the
// item recomputes, output is unchanged, and the entry heals.
func TestSweepBatchCorruptCacheEntryRecomputes(t *testing.T) {
	grid, err := GeometricGrid(2, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	items := cacheMixedItems()
	cfg := Config{Deltas: grid, Workers: 2}
	dir := t.TempDir()

	c, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := encodeAll(t, runBatch(t, items, BatchConfig{Config: cfg, Cache: c}))

	// Corrupt every on-disk entry: a later writer overwrites each with
	// garbage, then dies with its last record damaged and a torn
	// record after it.
	entries := storeEntries(t, dir)
	if len(entries) == 0 {
		t.Fatal("no cache entries on disk")
	}
	before, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	plant, err := cache.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := slices.SortedFunc(maps.Keys(entries), func(a, b cache.Key) int { return bytes.Compare(a[:], b[:]) })
	for _, key := range keys {
		if err := plant.Put(key, []byte("{\"v\":1,\"runs\":not json")); err != nil {
			t.Fatal(err)
		}
	}
	after, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(after) != len(before)+1 {
		t.Fatalf("planting wrote %d segments (err=%v), want 1", len(after)-len(before), err)
	}
	seg := after[slices.IndexFunc(after, func(name string) bool { return !slices.Contains(before, name) })]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg, append(data, "torn"...), 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the same directory (cold memory tier) sees
	// only the corrupt entries.
	c2, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	results := runBatch(t, items, BatchConfig{Config: cfg, Cache: c2})
	for i, br := range results {
		// Item 4 duplicates item 0, so once item 0's recompute heals
		// the shared entry the duplicate may legitimately hit.
		if br.CacheHit && i != 4 {
			t.Errorf("item %d: corrupt entry served as a hit", i)
		}
	}
	got := encodeAll(t, results)
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Errorf("item %d: output differs after corruption-recompute", i)
		}
	}

	// The write-back healed the entries: a third cache hits everything.
	c3, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i, br := range runBatch(t, items, BatchConfig{Config: cfg, Cache: c3}) {
		if !br.CacheHit {
			t.Errorf("item %d: healed entry not hit", i)
		}
	}
}

// Result-affecting config changes must miss; result-irrelevant ones
// (worker count, inert grid points, unused sub-algorithm fields) must
// hit.
func TestCacheFingerprintNormalization(t *testing.T) {
	gridA, err := GeometricGrid(2, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	gridB, err := GeometricGrid(2, 8, 4) // different grid: must miss
	if err != nil {
		t.Fatal(err)
	}
	// gridA plus sub-2 points: for a graph item the extra points are
	// inert (no RLS job below δ=2) and must share the entry.
	gridAPlus := append([]float64{0.5, 1}, gridA...)

	g := gen.LayeredDAG(4, 8, 3, 7)
	c, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}

	runOne := func(cfg Config) BatchResult {
		t.Helper()
		res := runBatch(t, []BatchItem{{Graph: g}}, BatchConfig{Config: cfg, Cache: c})
		return res[0]
	}

	if br := runOne(Config{Deltas: gridA, Workers: 1}); br.CacheHit {
		t.Error("first run hit an empty cache")
	}
	if br := runOne(Config{Deltas: gridA, Workers: 3}); !br.CacheHit {
		t.Error("worker count perturbed the cache key")
	}
	if br := runOne(Config{Deltas: gridAPlus}); !br.CacheHit {
		t.Error("inert sub-2 grid points perturbed a graph item's key")
	}
	if br := runOne(Config{Deltas: gridA, SkipSBO: true}); !br.CacheHit {
		t.Error("SkipSBO perturbed a graph item's key (graphs never run SBO)")
	}
	if br := runOne(Config{Deltas: gridB}); br.CacheHit {
		t.Error("a different grid produced a false cache hit")
	}
	if br := runOne(Config{Deltas: gridA, Ties: DefaultTies[:2]}); br.CacheHit {
		t.Error("a different tie-break set produced a false cache hit")
	}
}

// An instance and its edgeless graph twin run different algorithm
// families and must never share a cache entry.
func TestCacheInstanceGraphNeverAlias(t *testing.T) {
	grid, err := GeometricGrid(2, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	in := gen.Uniform(20, 3, 5)
	c, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	edgeless := BatchItem{Graph: dag.FromInstance(in)}
	if br := runBatch(t, []BatchItem{{Instance: in}}, BatchConfig{Config: Config{Deltas: grid}, Cache: c})[0]; br.CacheHit {
		t.Error("empty cache hit")
	}
	if br := runBatch(t, []BatchItem{edgeless}, BatchConfig{Config: Config{Deltas: grid}, Cache: c})[0]; br.CacheHit {
		t.Error("edgeless graph aliased its instance twin")
	}
}

func TestDecodeResultRejectsDefects(t *testing.T) {
	if _, err := decodeResult([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := decodeResult([]byte(`{"v":99}`)); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := decodeResult([]byte(`{"v":1,"runs":[],"front":[{"cmax":1,"mmax":1,"run":0}]}`)); err == nil {
		t.Error("out-of-range front witness accepted")
	}
}

// Per-run errors round-trip as messages through the wire format.
func TestWireRoundTripPreservesRunErrors(t *testing.T) {
	res := &Result{Runs: []Run{{Algorithm: AlgRLS, Delta: 3, Err: errForTest}}}
	data, err := appendResult(nil, res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Runs[0].Err == nil || back.Runs[0].Err.Error() != errForTest.Error() {
		t.Errorf("run error round-trip = %v, want %v", back.Runs[0].Err, errForTest)
	}
}

// storeEntries reads every entry the DirStore directory dir holds.
func storeEntries(t *testing.T, dir string) map[cache.Key][]byte {
	t.Helper()
	st, err := cache.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	entries := make(map[cache.Key][]byte, len(infos))
	for _, info := range infos {
		val, ok := st.Get(info.Key)
		if !ok {
			t.Fatalf("listed entry %s misses", info.Key)
		}
		entries[info.Key] = val
	}
	return entries
}
