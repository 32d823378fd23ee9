package cache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestDirStoreRoundTrip(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := testKey(1), testKey(2)

	if _, ok := store.Get(k1); ok {
		t.Fatal("Get on empty store hit")
	}
	if _, ok := store.Stat(k1); ok {
		t.Fatal("Stat on empty store hit")
	}
	if err := store.Put(k1, []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(k2, []byte("beta-longer")); err != nil {
		t.Fatal(err)
	}
	if val, ok := store.Get(k1); !ok || !bytes.Equal(val, []byte("alpha")) {
		t.Fatalf("Get(k1) = %q, %v", val, ok)
	}
	info, ok := store.Stat(k2)
	if !ok || info.Key != k2 || info.Size != int64(len("beta-longer")) {
		t.Fatalf("Stat(k2) = %+v, %v", info, ok)
	}
	if info.ModTime.IsZero() {
		t.Error("Stat mod time is zero")
	}

	infos, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("List returned %d entries, want 2", len(infos))
	}
	// List is key-ordered: fixed-width hex names sort as the keys do.
	if infos[0].Key.String() > infos[1].Key.String() {
		t.Errorf("List out of key order: %s before %s", infos[0].Key, infos[1].Key)
	}

	// Overwrite is atomic and replaces the value.
	if err := store.Put(k1, []byte("alpha2")); err != nil {
		t.Fatal(err)
	}
	if val, _ := store.Get(k1); !bytes.Equal(val, []byte("alpha2")) {
		t.Errorf("after overwrite Get(k1) = %q", val)
	}

	if err := store.Delete(k1); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(k1); ok {
		t.Error("Get after Delete hit")
	}
	// Deleting an absent blob is success (sweeps race benignly).
	if err := store.Delete(k1); err != nil {
		t.Errorf("second Delete: %v", err)
	}
}

func TestDirStoreListSkipsStraysAndTombstones(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	if err := store.Put(k, []byte("value")); err != nil {
		t.Fatal(err)
	}
	// A deleted key is a tombstone in the segment: not listed, a miss.
	gone := testKey(4)
	if err := store.Put(gone, []byte("deleted")); err != nil {
		t.Fatal(err)
	}
	if err := store.Delete(gone); err != nil {
		t.Fatal(err)
	}
	// Strays that must not be listed: files of the one-file-per-key
	// layout, other names, and a directory named like a segment.
	for _, name := range []string{"put-123.tmp", testKey(2).String() + ".json", "short.json", "README"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "seg-1-dir.log"), 0o755); err != nil {
		t.Fatal(err)
	}

	for _, st := range []*DirStore{store, mustOpen(t, dir)} {
		infos, err := st.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 1 || infos[0].Key != k || infos[0].Size != int64(len("value")) {
			t.Fatalf("List = %+v, want exactly {k, 5 bytes}", infos)
		}
		if _, ok := st.Get(gone); ok {
			t.Error("Get on a deleted key hit")
		}
		if _, ok := st.Get(testKey(2)); ok {
			t.Error("a <key>.json file of the old layout was served")
		}
	}
}

func TestNewDirStoreRejectsEmptyAndBadDir(t *testing.T) {
	if _, err := NewDirStore(""); err == nil {
		t.Error("NewDirStore(\"\") succeeded")
	}
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDirStore(filepath.Join(file, "sub")); err == nil {
		t.Error("NewDirStore under a file succeeded")
	}
}

// memStore is the pluggability proof: a map-backed BlobStore (nothing
// to compact — a remote store reclaims its own space) driving the same
// cache and lifecycle paths DirStore does.
type memStore struct {
	m map[Key][]byte
	t map[Key]time.Time
}

func newMemStore() *memStore {
	return &memStore{m: map[Key][]byte{}, t: map[Key]time.Time{}}
}

func (s *memStore) Get(key Key) ([]byte, bool) {
	val, ok := s.m[key]
	return val, ok && len(val) > 0
}

func (s *memStore) Put(key Key, val []byte) error {
	s.m[key] = append([]byte(nil), val...)
	s.t[key] = s.t[key].Add(time.Second) // deterministic, strictly advancing per key
	return nil
}

func (s *memStore) List() ([]BlobInfo, error) {
	var infos []BlobInfo
	for key, val := range s.m {
		infos = append(infos, BlobInfo{Key: key, Size: int64(len(val)), ModTime: s.t[key]})
	}
	return infos, nil
}

func (s *memStore) Stat(key Key) (BlobInfo, bool) {
	val, ok := s.m[key]
	if !ok {
		return BlobInfo{}, false
	}
	return BlobInfo{Key: key, Size: int64(len(val)), ModTime: s.t[key]}, true
}

func (s *memStore) Delete(key Key) error {
	delete(s.m, key)
	delete(s.t, key)
	return nil
}

func TestCustomBlobStoreBacksTheCache(t *testing.T) {
	store := newMemStore()
	c, err := New(Config{Store: store, MemEntries: -1}) // disk-only: every Get exercises the store
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	c.Put(k, []byte("via custom store"))
	if val, ok := c.Get(k); !ok || string(val) != "via custom store" {
		t.Fatalf("Get through custom store = %q, %v", val, ok)
	}
	if _, ok := store.m[k]; !ok {
		t.Fatal("value did not land in the custom store")
	}
	// The lifecycle drives the same seam: evict everything by size.
	res, err := c.GC(GCPolicy{MaxBytes: 1, Now: time.Unix(1000, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.EvictedSize != 1 || res.Live != 0 {
		t.Fatalf("GC over custom store = %+v, want 1 evicted, 0 live", res)
	}
	if len(store.m) != 0 {
		t.Error("custom store still holds entries after GC evicted everything")
	}
}
