package cache

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"
)

func mustOpen(t testing.TB, dir string) *DirStore {
	t.Helper()
	st, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// segmentFiles lists the segment files in dir.
func segmentFiles(t testing.TB, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// onlySegment returns dir's one segment file.
func onlySegment(t testing.TB, dir string) string {
	t.Helper()
	names := segmentFiles(t, dir)
	if len(names) != 1 {
		t.Fatalf("%d segment files in %s, want 1", len(names), dir)
	}
	return names[0]
}

// flipByte inverts the byte at off in the file at path; a negative off
// counts from the end.
func flipByte(t testing.TB, path string, off int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += int64(len(data))
	}
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// plantSegment writes a segment file nothing holds: the leavings of a
// writer that has exited.
func plantSegment(t testing.TB, dir, name string, recs ...[]byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, bytes.Join(recs, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// segmentKeys lists the keys of the complete records in a segment
// file, in file order.
func segmentKeys(t testing.TB, path string) []Key {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	var keys []Key
	scanRecords(f, 0, fi.Size(), func(_ int64, r record) { keys = append(keys, r.key) })
	return keys
}

// A crash can cut a writer's segment anywhere in its last record. At
// every such offset, a store opened over the directory serves the
// earlier records, misses the cut one, and takes the next Put.
func TestSegmentCutInItsLastRecord(t *testing.T) {
	src := t.TempDir()
	vals := []string{"first", "second", "the last value"}
	w := mustOpen(t, src)
	for i, v := range vals {
		if err := w.Put(testKey(i), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(onlySegment(t, src))
	if err != nil {
		t.Fatal(err)
	}
	last := len(data) - recHeader - len(vals[2])
	for cut := last; cut < len(data); cut++ {
		dir := t.TempDir()
		plantSegment(t, dir, "seg-1-crashed.log", data[:cut])
		st := mustOpen(t, dir)
		for i, v := range vals[:2] {
			if got, ok := st.Get(testKey(i)); !ok || string(got) != v {
				t.Fatalf("cut at %d: Get(%d) = %q, %v", cut, i, got, ok)
			}
		}
		if _, ok := st.Get(testKey(2)); ok {
			t.Fatalf("cut at %d: the cut record hit", cut)
		}
		if err := st.Put(testKey(3), []byte("next")); err != nil {
			t.Fatalf("cut at %d: Put: %v", cut, err)
		}
		for _, s := range []*DirStore{st, mustOpen(t, dir)} {
			if got, ok := s.Get(testKey(3)); !ok || string(got) != "next" {
				t.Fatalf("cut at %d: the next Put reads back %q, %v", cut, got, ok)
			}
		}
	}
}

// Two stores on one directory stand for two processes sharing it: each
// serves the other's Puts after a miss, whether the Put created the
// writer's segment or appended to it.
func TestTwoStoresOnOneDirectory(t *testing.T) {
	dir := t.TempDir()
	a, b := mustOpen(t, dir), mustOpen(t, dir)
	step := func(from, to *DirStore, i int) {
		t.Helper()
		val := []byte("value " + strconv.Itoa(i))
		if err := from.Put(testKey(i), val); err != nil {
			t.Fatal(err)
		}
		if got, ok := to.Get(testKey(i)); !ok || !bytes.Equal(got, val) {
			t.Fatalf("Get(%d) from the other store = %q, %v", i, got, ok)
		}
		if info, ok := to.Stat(testKey(i)); !ok || info.Size != int64(len(val)) {
			t.Fatalf("Stat(%d) from the other store = %+v, %v", i, info, ok)
		}
	}
	step(a, b, 1)
	step(b, a, 2)
	step(a, b, 3)
	step(b, a, 4)
	if n := len(segmentFiles(t, dir)); n != 2 {
		t.Errorf("%d segment files, want one per writer", n)
	}
	infos, err := b.List()
	if err != nil || len(infos) != 4 {
		t.Errorf("List = %d entries (err=%v), want 4", len(infos), err)
	}
}

// GC compacts the segments of writers that have exited — keeping each
// key's current record, dropping superseded ones and a torn tail — and
// leaves a live writer's segment as it is, however much of it is
// superseded.
func TestGCCompactsDeadSegmentsNotALiveWriters(t *testing.T) {
	dir := t.TempDir()
	now := time.Now().UnixNano()
	live := mustOpen(t, dir)
	for _, v := range []string{"v1", "v1 again"} {
		if err := live.Put(testKey(1), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	liveSeg := onlySegment(t, dir)
	liveFI, err := os.Stat(liveSeg)
	if err != nil {
		t.Fatal(err)
	}
	dead := plantSegment(t, dir, "seg-1-dead.log",
		appendRecord(nil, testKey(2), now-2, []byte("v2")),
		appendRecord(nil, testKey(2), now-1, []byte("v2 again")),
		appendRecord(nil, testKey(3), now, []byte("v3")),
		[]byte("torn"))

	c, err := New(Config{Dir: dir, MemEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.GC(GCPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compacted != 1 || res.Live != 3 {
		t.Errorf("GC = %+v, want 1 segment compacted, 3 live entries", res)
	}
	if _, err := os.Stat(dead); err == nil {
		t.Error("the dead writer's segment survived compaction")
	}
	if fi, err := os.Stat(liveSeg); err != nil || fi.Size() != liveFI.Size() {
		t.Errorf("the live writer's segment changed: %v, %v", fi, err)
	}
	want := map[int]string{1: "v1 again", 2: "v2 again", 3: "v3"}
	for _, st := range []BlobStore{c.store, live, mustOpen(t, dir)} {
		for i, v := range want {
			if got, ok := st.Get(testKey(i)); !ok || string(got) != v {
				t.Errorf("after compaction Get(%d) = %q, %v; want %q", i, got, ok, v)
			}
		}
	}
	// The copies keep their write times.
	if info, ok := c.store.Stat(testKey(3)); !ok || info.ModTime.UnixNano() != now {
		t.Errorf("compacted record stamped %d, want %d", info.ModTime.UnixNano(), now)
	}
	// Nothing is left to reclaim: a second sweep compacts nothing.
	if res, err := c.GC(GCPolicy{}); err != nil || res.Compacted != 0 {
		t.Errorf("second GC = %+v, %v; want nothing compacted", res, err)
	}
}

// A tombstone is copied only while a segment that stays holds a record
// it deletes; dropping it then would bring the deleted entry back.
func TestGCKeepsTombstonesThatShadowALiveWriter(t *testing.T) {
	dir := t.TempDir()
	now := time.Now().UnixNano()
	live := mustOpen(t, dir)
	if err := live.put(testKey(1), []byte("deleted later"), now-10); err != nil {
		t.Fatal(err)
	}
	plantSegment(t, dir, "seg-1-dead.log",
		appendRecord(nil, testKey(1), now, nil),
		appendRecord(nil, testKey(2), now, nil),
		appendRecord(nil, testKey(3), now, []byte("v3")))

	c, err := New(Config{Dir: dir, MemEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := c.GC(GCPolicy{}); err != nil || res.Compacted != 1 {
		t.Fatalf("GC = %+v, %v; want 1 segment compacted", res, err)
	}
	if _, ok := mustOpen(t, dir).Get(testKey(1)); ok {
		t.Error("a deleted entry came back after compaction")
	}
	copied := segmentKeys(t, c.store.(*DirStore).w.f.Name())
	if len(copied) != 2 || copied[0] != testKey(1) || copied[1] != testKey(3) {
		t.Errorf("compaction copied %v; want the shadowing tombstone and key 3", copied)
	}
}

// GC removes the files of the one-file-per-key layout — <key>.json
// entries and put-*.tmp intermediates, whatever their age — and does
// not import them.
func TestGCRemovesLegacyFilesWithoutImporting(t *testing.T) {
	dir := t.TempDir()
	legacy := []string{testKey(1).String() + ".json", "put-crashed.tmp", "put-123456.tmp"}
	for _, name := range legacy {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("old layout"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	other := filepath.Join(dir, "notes.json")
	if err := os.WriteFile(other, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(testKey(2), []byte("real entry"))

	res, err := c.GC(GCPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.LegacyRemoved != len(legacy) || res.Scanned != 1 {
		t.Errorf("GC = %+v, want %d legacy files removed, 1 entry scanned", res, len(legacy))
	}
	if got := c.Stats().GCLegacyRemoved; got != int64(len(legacy)) {
		t.Errorf("Stats().GCLegacyRemoved = %d, want %d", got, len(legacy))
	}
	for _, name := range legacy {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			t.Errorf("%s survived gc", name)
		}
	}
	if _, err := os.Stat(other); err != nil {
		t.Error("gc removed a file that is not the old layout's")
	}
	if _, ok := c.Get(testKey(1)); ok {
		t.Error("a legacy entry was imported")
	}
	if val, ok := c.Get(testKey(2)); !ok || string(val) != "real entry" {
		t.Errorf("real entry after gc = %q, %v", val, ok)
	}
}

// A writer moves to a new segment past segRotate and gives up its lock
// on the old one, which compaction can then take.
func TestWriterRotatesPastTheSegmentSize(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	val := bytes.Repeat([]byte{7}, 4<<20)
	n := segRotate/len(val) + 1
	for i := range n {
		if err := st.Put(testKey(i), val); err != nil {
			t.Fatal(err)
		}
	}
	names := segmentFiles(t, dir)
	if len(names) != 2 {
		t.Fatalf("%d segments after %d bytes, want 2", len(names), n*len(val))
	}
	for _, name := range names {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		current := name == st.w.f.Name()
		if got := lockSegment(f); got == current && runtime.GOOS == "linux" {
			t.Errorf("%s: lock taken = %v, want %v", filepath.Base(name), got, !current)
		}
		f.Close()
	}
	for _, i := range []int{0, n - 1} {
		if got, ok := st.Get(testKey(i)); !ok || !bytes.Equal(got, val) {
			t.Errorf("Get(%d) after rotation: %d bytes, %v", i, len(got), ok)
		}
	}
}

// FuzzSegmentScan opens a store over an arbitrary segment file. Opening
// never panics and allocates in proportion to the file, not to the
// lengths it claims; every value served is one a Put wrote — a whole
// record in the file, with its own key and CRC; and the store still
// takes writes.
func FuzzSegmentScan(f *testing.F) {
	now := time.Now().UnixNano()
	good := bytes.Join([][]byte{
		appendRecord(nil, testKey(1), now, []byte("alpha")),
		appendRecord(nil, testKey(2), now, []byte("beta")),
		appendRecord(nil, testKey(1), now+1, nil),
		appendRecord(nil, testKey(3), now, []byte(`{"v":1}`)),
	}, nil)
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(good[:recHeader+2])
	flipped := bytes.Clone(good)
	flipped[recHeader+1] ^= 1
	f.Add(flipped)
	huge := bytes.Clone(good)
	huge[40], huge[41] = 0xff, 0xff
	f.Add(huge)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		plantSegment(t, dir, "seg-1-fuzz.log", data)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		st, err := NewDirStore(dir)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(128<<10+8*len(data)); got > limit {
			t.Fatalf("opening a %d-byte segment allocated %d bytes", len(data), got)
		}
		infos, err := st.List()
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range infos {
			val, ok := st.Get(info.Key)
			if !ok {
				continue
			}
			if int64(len(val)) != info.Size {
				t.Fatalf("Get served %d bytes, Stat says %d", len(val), info.Size)
			}
			if rec := appendRecord(nil, info.Key, info.ModTime.UnixNano(), val); !bytes.Contains(data, rec) {
				t.Fatalf("served %q for %s, which no intact record in the file holds", val, info.Key)
			}
		}
		k := testKey(99)
		if err := st.Put(k, []byte("after")); err != nil {
			t.Fatal(err)
		}
		if got, ok := st.Get(k); !ok || string(got) != "after" {
			t.Fatalf("Put after open reads back %q, %v", got, ok)
		}
	})
}
