package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"storagesched/internal/core"
	"storagesched/internal/dag"
	"storagesched/internal/gen"
	"storagesched/internal/model"
)

// fingerprintCorpus is the fixed cold-sweep corpus whose cached bytes
// resultDigest pins: the schedcli smoke items, one seeded instance per
// gen instance family, and a layered and a fork-join DAG.
func fingerprintCorpus(t *testing.T) []BatchItem {
	t.Helper()
	dir := filepath.Join("..", "..", "cmd", "schedcli", "testdata", "smoke")
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatalf("no smoke items under %s", dir)
	}
	var items []BatchItem
	for _, name := range names {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(name, ".graph.json") {
			g, err := dag.ReadGraphJSON(f)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			items = append(items, BatchItem{Graph: g})
		} else {
			in, err := model.ReadInstanceJSON(f)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			items = append(items, BatchItem{Instance: in})
		}
		f.Close()
	}
	for k, fam := range gen.Families() {
		items = append(items, BatchItem{Instance: fam.Gen(30, 4, int64(k+1))})
	}
	items = append(items,
		BatchItem{Graph: gen.LayeredDAG(4, 8, 3, 11)},
		BatchItem{Graph: gen.ForkJoin(4, 4, 3, 12)},
	)
	return items
}

// TestCacheFingerprintPinned sweeps the fixed corpus cold under two
// configs and compares a digest of the cache wire bytes with
// resultDigest. Cache keys carry only the hand-bumped fingerprint
// version, so a solver change that moves any emitted value without a
// bump would serve stale fronts from every warm cache; this test turns
// that into a failure.
func TestCacheFingerprintPinned(t *testing.T) {
	geo, err := GeometricGrid(0.5, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := LinearGrid(2, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	configs := []Config{
		{Deltas: geo, Workers: 2},
		// Reordered ties put the aliased LPT and BLevel runs in other
		// slots, and the linear grid hits integral δ exactly.
		{Deltas: lin, Workers: 2, Ties: []core.TieBreak{core.TieBottomLevel, core.TieSPT, core.TieLPT, core.TieByID}},
	}
	items := fingerprintCorpus(t)
	h := sha256.New()
	for _, cfg := range configs {
		for _, data := range encodeAll(t, runBatch(t, items, BatchConfig{Config: cfg})) {
			h.Write(data)
			h.Write([]byte{'\n'})
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != resultDigest {
		t.Fatalf("cold-sweep digest of the fingerprint corpus is %s, want %s: "+
			"a solver change moved cached values; bump fp1 or fix the solver", got, resultDigest)
	}
}
