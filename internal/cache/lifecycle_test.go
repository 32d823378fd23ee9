package cache

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// plantEntry writes an entry through the cache's store stamped with
// mtime, so sweeps rank it deterministically.
func plantEntry(t *testing.T, c *Cache, key Key, val []byte, mtime time.Time) {
	t.Helper()
	if err := c.store.(*DirStore).put(key, val, mtime.UnixNano()); err != nil {
		t.Fatal(err)
	}
}

func TestGCAgeCapEvictsOldEntries(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	plantEntry(t, c, testKey(1), []byte("ancient"), now.Add(-48*time.Hour))
	plantEntry(t, c, testKey(2), []byte("recent"), now.Add(-time.Hour))

	res, err := c.GC(GCPolicy{MaxAge: 24 * time.Hour, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	if res.EvictedAge != 1 || res.Live != 1 {
		t.Fatalf("GC = %+v, want 1 evicted by age, 1 live", res)
	}
	if _, ok := c.Get(testKey(1)); ok {
		t.Error("ancient entry survived the age cap")
	}
	if _, ok := c.Get(testKey(2)); !ok {
		t.Error("recent entry lost")
	}
}

// The size pass is deterministic: oldest first, ties broken on the
// key's hex form — two sweeps of identical states evict identically,
// on any machine.
func TestGCSizeCapEvictsOldestFirstWithKeyTieBreak(t *testing.T) {
	now := time.Now().Truncate(time.Second)
	// Four 10-byte entries: one older, three sharing one mtime (the
	// tie the key order must break).
	keys := []Key{testKey(1), testKey(2), testKey(3), testKey(4)}
	tied := []Key{keys[1], keys[2], keys[3]}
	sort.Slice(tied, func(i, j int) bool { return tied[i].String() < tied[j].String() })

	build := func(t *testing.T) *Cache {
		dir := t.TempDir()
		c, err := New(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		plantEntry(t, c, keys[0], []byte("0123456789"), now.Add(-time.Hour))
		for _, k := range tied {
			plantEntry(t, c, k, []byte("0123456789"), now)
		}
		return c
	}

	// Budget for two entries: the old one goes first, then the tied
	// entry with the smallest key.
	var survivors [][]Key
	for range 2 {
		c := build(t)
		res, err := c.GC(GCPolicy{MaxBytes: 20, Now: now})
		if err != nil {
			t.Fatal(err)
		}
		if res.EvictedSize != 2 || res.EvictedBytes != 20 || res.Live != 2 {
			t.Fatalf("GC = %+v, want 2 evicted by size (20 bytes), 2 live", res)
		}
		if _, ok := c.Get(keys[0]); ok {
			t.Error("oldest entry survived a binding size cap")
		}
		if _, ok := c.Get(tied[0]); ok {
			t.Error("smallest-key tied entry survived; tie-break is not on key")
		}
		var left []Key
		for _, k := range keys {
			if _, ok := c.store.Stat(k); ok {
				left = append(left, k)
			}
		}
		survivors = append(survivors, left)
	}
	if fmt.Sprint(survivors[0]) != fmt.Sprint(survivors[1]) {
		t.Errorf("two sweeps of identical states evicted differently:\n%v\n%v", survivors[0], survivors[1])
	}
}

// Config caps are the zero GCPolicy's fallback — what schedd's
// background ticker relies on.
func TestGCZeroPolicyFallsBackToConfigCaps(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Dir: dir, MaxBytes: 12, MaxAge: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	plantEntry(t, c, testKey(1), []byte("stale entry"), now.Add(-48*time.Hour))
	plantEntry(t, c, testKey(2), []byte("0123456789"), now.Add(-2*time.Hour))
	plantEntry(t, c, testKey(3), []byte("0123456789"), now.Add(-time.Hour))

	res, err := c.GC(GCPolicy{Now: now})
	if err != nil {
		t.Fatal(err)
	}
	if res.EvictedAge != 1 {
		t.Errorf("EvictedAge = %d, want 1 (Config.MaxAge fallback)", res.EvictedAge)
	}
	if res.EvictedSize != 1 {
		t.Errorf("EvictedSize = %d, want 1 (Config.MaxBytes fallback)", res.EvictedSize)
	}
	if _, ok := c.Get(testKey(3)); !ok {
		t.Error("newest entry lost")
	}
	// An explicitly negative policy unbinds the axis for one sweep.
	plantEntry(t, c, testKey(4), []byte("stale again"), now.Add(-48*time.Hour))
	res, err = c.GC(GCPolicy{MaxBytes: -1, MaxAge: -1, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	if res.EvictedAge != 0 || res.EvictedSize != 0 {
		t.Errorf("negative policy still evicted: %+v", res)
	}
}

// The memory-tier byte budget satellite: the LRU bounds resident
// bytes, not just entry count, and refuses to promote a single value
// larger than the whole budget (the disk hit is still served).
func TestMemoryTierByteBudget(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Dir: dir, MemEntries: 100, MemBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Four 20-byte values against a 64-byte budget: at most three fit.
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%d-aaaaaaaaaaaa", i)) }
	for i := range 4 {
		c.Put(testKey(i), val(i))
	}
	if got := c.MemBytes(); got > 64 {
		t.Errorf("MemBytes = %d, budget 64", got)
	}
	if got := c.Len(); got != 3 {
		t.Errorf("Len = %d, want 3 resident 20-byte entries", got)
	}
	if c.Stats().Evictions == 0 {
		t.Error("no byte-budget evictions counted")
	}
	// Every value is still a hit — evicted ones via the disk tier.
	for i := range 4 {
		if got, ok := c.Get(testKey(i)); !ok || string(got) != string(val(i)) {
			t.Fatalf("Get(%d) = %q, %v", i, got, ok)
		}
	}

	// An oversized value must not enter the memory tier (it would evict
	// everything and still bust the budget) but stays a valid disk hit.
	big := make([]byte, 128)
	for i := range big {
		big[i] = byte('a' + i%26)
	}
	c.Put(testKey(99), big)
	st := c.Stats()
	if got, ok := c.Get(testKey(99)); !ok || len(got) != 128 {
		t.Fatalf("oversized Get = %d bytes, %v", len(got), ok)
	}
	if c.Stats().DiskHits != st.DiskHits+1 {
		t.Error("oversized value was served from memory; promotion should have been refused")
	}
	if got := c.MemBytes(); got > 64 {
		t.Errorf("MemBytes = %d after oversized Put, budget 64", got)
	}
}

func TestVerifyRemovesGarbageKeepsDecodable(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(testKey(1), []byte("good-1"))
	c.Put(testKey(3), []byte("good-3"))
	// Garbage lands on disk behind the cache's back (bit rot, a stray
	// writer) — it never passes through the memory tier.
	if err := c.store.Put(testKey(2), []byte("BAD")); err != nil {
		t.Fatal(err)
	}
	// A record whose value no longer matches its CRC: unreadable,
	// removed regardless of the check.
	if err := c.store.Put(testKey(4), []byte("good-4")); err != nil {
		t.Fatal(err)
	}
	flipByte(t, onlySegment(t, dir), -1)

	check := func(_ Key, val []byte) error {
		if len(val) >= 4 && string(val[:4]) == "good" {
			return nil
		}
		return fmt.Errorf("not a good entry: %q", val)
	}
	res, err := c.Verify(check)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checked != 3 {
		t.Errorf("Checked = %d, want 3 readable entries", res.Checked)
	}
	if res.Removed != 2 {
		t.Errorf("Removed = %d, want 2 (one rejected, one damaged)", res.Removed)
	}
	for _, k := range []Key{testKey(1), testKey(3)} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("decodable entry %s lost to Verify", k)
		}
	}
	if _, ok := c.Get(testKey(2)); ok {
		t.Error("rejected entry survived Verify")
	}
	if got := c.Stats().GCVerifyRemoved; got != 2 {
		t.Errorf("Stats().GCVerifyRemoved = %d, want 2", got)
	}

	// A nil check keeps every readable entry.
	res, err = c.Verify(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checked != 2 || res.Removed != 0 {
		t.Errorf("nil-check Verify = %+v, want 2 checked, 0 removed", res)
	}
}

// The concurrency satellite: gc and verify loop against live Put/Get
// traffic (run with -race). With caps that never bind, no valid entry
// may be lost, and the gc counters grow monotonically.
func TestGCConcurrentWithLiveTraffic(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Dir: dir, MemEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		perW    = 40
	)
	stop := make(chan struct{})
	var sweeps sync.WaitGroup
	sweeps.Add(2)
	go func() {
		defer sweeps.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.GC(GCPolicy{MaxBytes: 1 << 40}); err != nil {
				t.Errorf("GC: %v", err)
				return
			}
		}
	}()
	go func() {
		defer sweeps.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Verify(nil); err != nil {
				t.Errorf("Verify: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range perW {
				k := testKey(w*perW + i)
				val := []byte(fmt.Sprintf("entry-%d-%d", w, i))
				c.Put(k, val)
				if got, ok := c.Get(k); !ok || string(got) != string(val) {
					t.Errorf("entry %d/%d lost under concurrent gc: %q, %v", w, i, got, ok)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	sweeps.Wait()

	st := c.Stats()
	if st.GCRuns == 0 {
		t.Error("gc loop never ran")
	}
	if st.GCEvictions != 0 {
		t.Errorf("unbounded gc evicted %d entries", st.GCEvictions)
	}
	// Every written entry is still present after the dust settles.
	for w := range writers {
		for i := range perW {
			if _, ok := c.Get(testKey(w*perW + i)); !ok {
				t.Fatalf("entry %d/%d missing after concurrent sweeps", w, i)
			}
		}
	}
	// Counters are monotone: a final sweep only grows them.
	before := c.Stats()
	if _, err := c.GC(GCPolicy{MaxBytes: 1 << 40}); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.GCRuns <= before.GCRuns {
		t.Errorf("GCRuns not monotone: %d then %d", before.GCRuns, after.GCRuns)
	}
	if after.GCEvictedBytes < before.GCEvictedBytes || after.GCLegacyRemoved < before.GCLegacyRemoved {
		t.Error("gc byte/legacy counters regressed")
	}
}
