package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"storagesched/internal/dag"
	"storagesched/internal/model"
)

func testKey(i int) Key {
	return KeyFor([]byte(fmt.Sprintf("item-%d", i)), "fp")
}

// The satellite contract: cache keys are invariant under every task-ID
// labelling the JSON readers canonicalize. A file with implicit IDs
// (all zero) and the same file with explicit sequential IDs decode to
// semantically identical instances and must hash equal; names are
// cosmetic and must not perturb the key either.
func TestCanonicalInstanceInvariantUnderIDRenaming(t *testing.T) {
	implicit := `{"m":2,"tasks":[{"p":4,"s":1},{"p":7,"s":3},{"p":2,"s":5}]}`
	explicit := `{"m":2,"tasks":[{"id":0,"p":4,"s":1},{"id":1,"p":7,"s":3},{"id":2,"p":2,"s":5}]}`
	named := `{"m":2,"tasks":[{"id":0,"p":4,"s":1,"name":"a"},{"id":1,"p":7,"s":3,"name":"b"},{"id":2,"p":2,"s":5}]}`

	var canon [][]byte
	for _, doc := range []string{implicit, explicit, named} {
		in, err := model.ReadInstanceJSON(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("reading %s: %v", doc, err)
		}
		canon = append(canon, CanonicalInstance(in))
	}
	for i := 1; i < len(canon); i++ {
		if !bytes.Equal(canon[0], canon[i]) {
			t.Errorf("canonical bytes differ between variant 0 and %d:\n%q\n%q", i, canon[0], canon[i])
		}
	}
	if KeyFor(canon[0], "fp") != KeyFor(canon[1], "fp") {
		t.Error("keys differ for semantically identical instances")
	}

	// A genuinely different instance must not alias.
	other, err := model.ReadInstanceJSON(strings.NewReader(`{"m":2,"tasks":[{"p":4,"s":1},{"p":7,"s":3},{"p":2,"s":6}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(canon[0], CanonicalInstance(other)) {
		t.Error("different instances share canonical bytes")
	}
}

func TestCanonicalGraphInvariantUnderIDRenaming(t *testing.T) {
	implicit := `{"m":2,"tasks":[{"p":4,"s":1},{"p":7,"s":3}],"edges":[[0,1]]}`
	explicit := `{"m":2,"tasks":[{"id":0,"p":4,"s":1},{"id":1,"p":7,"s":3}],"edges":[[0,1]]}`
	g1, err := dag.ReadGraphJSON(strings.NewReader(implicit))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := dag.ReadGraphJSON(strings.NewReader(explicit))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(CanonicalGraph(g1), CanonicalGraph(g2)) {
		t.Errorf("canonical graph bytes differ:\n%q\n%q", CanonicalGraph(g1), CanonicalGraph(g2))
	}
	// Duplicate-edge insertion must not change the canonical form.
	g3 := g1.Clone()
	g3.AddEdge(0, 1)
	if !bytes.Equal(CanonicalGraph(g1), CanonicalGraph(g3)) {
		t.Error("duplicate AddEdge changed canonical bytes")
	}
}

// An edgeless graph and the equivalent independent-task instance run
// different algorithm selections; their canonical bytes must differ.
func TestCanonicalGraphNeverAliasesInstance(t *testing.T) {
	in := model.NewInstance(2, []model.Time{4, 7}, []model.Mem{1, 3})
	g := dag.FromInstance(in)
	if bytes.Equal(CanonicalInstance(in), CanonicalGraph(g)) {
		t.Error("edgeless graph aliases its instance")
	}
}

func TestKeyForFramesParts(t *testing.T) {
	// The canonical bytes and the fingerprint are length-framed: moving
	// a byte across the boundary must change the key.
	if KeyFor([]byte("ab"), "c") == KeyFor([]byte("a"), "bc") {
		t.Error("keys collide across the canonical/fingerprint boundary")
	}
	if KeyFor([]byte("ab"), "c") == KeyFor([]byte("ab"), "d") {
		t.Error("fingerprint ignored")
	}
}

func TestMemoryTierLRUEvictionBounds(t *testing.T) {
	c, err := New(Config{MemEntries: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Put(testKey(i), []byte{byte(i)})
		if got := c.Len(); got > 3 {
			t.Fatalf("memory tier holds %d entries, cap 3", got)
		}
	}
	st := c.Stats()
	if st.Evictions != 7 {
		t.Errorf("evictions = %d, want 7", st.Evictions)
	}
	// The three most recent survive; older keys are gone.
	for i := 7; i < 10; i++ {
		if _, ok := c.Get(testKey(i)); !ok {
			t.Errorf("recent key %d evicted", i)
		}
	}
	if _, ok := c.Get(testKey(0)); ok {
		t.Error("oldest key survived a full wrap")
	}

	// Touching an entry refreshes it: after touching key 7, inserting
	// two more evicts 8 and 9's elder, not 7.
	c.Get(testKey(7))
	c.Put(testKey(10), []byte{10})
	c.Put(testKey(11), []byte{11})
	if _, ok := c.Get(testKey(7)); !ok {
		t.Error("recently touched key evicted before stale ones")
	}
}

func TestDiskTierRoundTripAndPromotion(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	c1.Put(key, []byte("front"))

	// A second cache over the same directory (fresh memory tier) sees
	// the value via disk and promotes it.
	c2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	val, ok := c2.Get(key)
	if !ok || string(val) != "front" {
		t.Fatalf("disk get = %q, %v", val, ok)
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Errorf("disk hits = %d, want 1", st.DiskHits)
	}
	// Promoted: the next get is a memory hit.
	if _, ok := c2.Get(key); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := c2.Stats(); st.MemHits != 1 {
		t.Errorf("mem hits = %d, want 1", st.MemHits)
	}
}

func TestCorruptDiskEntriesAreMisses(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Dir: dir, MemEntries: -1}) // disk-only
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(2)
	c.Put(key, []byte("front"))
	seg := onlySegment(t, dir)

	// A damaged value byte fails the CRC: a miss, not an error.
	flipByte(t, seg, -1)
	if _, ok := c.Get(key); ok {
		t.Error("damaged entry returned as a hit")
	}
	// So does a damaged key byte: the record is no longer key's.
	flipByte(t, seg, -1)
	flipByte(t, seg, 0)
	if _, ok := c.Get(key); ok {
		t.Error("entry with a damaged key returned as a hit")
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2", st.Misses)
	}

	// Recompute-and-overwrite heals the entry.
	c.Put(key, []byte("good"))
	if val, ok := c.Get(key); !ok || string(val) != "good" {
		t.Errorf("healed entry = %q, %v", val, ok)
	}
}

func TestDiskWriteErrorsAreCountedNotFatal(t *testing.T) {
	// Remove the directory under an open store so creating the
	// writer's segment fails (mode-bit tricks are unreliable under
	// root); the Put must be counted, not fatal.
	dir := filepath.Join(t.TempDir(), "gone")
	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	c.Put(testKey(3), []byte("v"))
	if st := c.Stats(); st.WriteErrors != 1 {
		t.Errorf("write errors = %d, want 1", st.WriteErrors)
	}
}

func TestNilCacheIsCachingOff(t *testing.T) {
	var c *Cache
	if _, ok := c.Get(testKey(0)); ok {
		t.Error("nil cache hit")
	}
	c.Put(testKey(0), []byte("v"))
	c.Reject(testKey(0))
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil cache stats = %+v", st)
	}
}

// Reject turns the hit Get just counted into a miss and drops the
// memory-tier copy, leaving the other entries alone.
func TestRejectTurnsHitIntoMiss(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(testKey(1), []byte("bad"))
	c.Put(testKey(2), []byte("good"))
	if _, ok := c.Get(testKey(1)); !ok {
		t.Fatal("planted value missed")
	}
	c.Reject(testKey(1))
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 1 || st.Rejected != 1 || st.MemHits != 1 || st.MemBytes != int64(len("good")) {
		t.Errorf("stats after Reject = %+v", st)
	}
	if _, ok := c.Get(testKey(1)); ok {
		t.Error("rejected value still in the memory tier")
	}
	if _, ok := c.Get(testKey(2)); !ok || c.Len() != 1 {
		t.Errorf("Reject disturbed another entry (len %d)", c.Len())
	}
}

// Disk-only without a directory would be a cache with no tier at all;
// New keeps the documented invariant by leaving the memory tier on.
func TestNewNeverBuildsZeroTierCache(t *testing.T) {
	c, err := New(Config{MemEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(testKey(0), []byte("v"))
	if _, ok := c.Get(testKey(0)); !ok {
		t.Error("cache with no disk tier and MemEntries < 0 never hits")
	}
}

func TestNewRejectsUnusableDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Dir: filepath.Join(file, "sub")}); err == nil {
		t.Error("New accepted a directory under a regular file")
	}
}

func TestConcurrentAccessIsSafe(t *testing.T) {
	c, err := New(Config{Dir: t.TempDir(), MemEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := testKey(i % 16)
				if v, ok := c.Get(k); ok && len(v) == 0 {
					t.Error("hit with empty value")
				}
				c.Put(k, []byte{byte(i + 1)})
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Errorf("memory tier exceeded cap: %d", c.Len())
	}
}
