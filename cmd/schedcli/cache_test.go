package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	sched "storagesched"
)

func TestCacheRejectsBadInputs(t *testing.T) {
	if err := runCache(nil, os.Stdout); err == nil {
		t.Error("missing verb accepted")
	}
	if err := runCache([]string{"bogus"}, os.Stdout); err == nil {
		t.Error("unknown verb accepted")
	}
	for _, verb := range []string{"stats", "gc", "verify"} {
		if err := runCache([]string{verb}, os.Stdout); err == nil {
			t.Errorf("%s without -dir accepted", verb)
		}
	}
}

// captureStderr redirects os.Stderr around fn and returns what was
// written (the cache summary and shard summaries go there, keeping
// stdout byte-deterministic).
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	defer func() {
		os.Stderr = old
	}()
	fn()
	w.Close()
	os.Stderr = old
	return <-done
}

// cacheEntries reads every entry of a cache directory, in key order.
func cacheEntries(t *testing.T, dir string) ([]sched.CacheKey, [][]byte) {
	t.Helper()
	st, err := sched.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	var keys []sched.CacheKey
	var vals [][]byte
	for _, info := range infos {
		val, ok := st.Get(info.Key)
		if !ok {
			t.Fatalf("listed entry %s misses", info.Key)
		}
		keys = append(keys, info.Key)
		vals = append(vals, val)
	}
	return keys, vals
}

// segmentFiles lists a cache directory's segment files.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// plantEntries stores vals at keys in a cache directory as a writer
// that has since exited: a store in a scratch directory writes them,
// and a copy of its segment joins dir. It returns the copy's path.
func plantEntries(t *testing.T, dir string, keys []sched.CacheKey, vals [][]byte) string {
	t.Helper()
	scratch := t.TempDir()
	st, err := sched.NewDirStore(scratch)
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		if err := st.Put(key, vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	segs := segmentFiles(t, scratch)
	if len(segs) != 1 {
		t.Fatalf("planting wrote %d segments, want 1", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "seg-1-planted.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The acceptance scenario: a cache directory accumulating sweeps, a
// crashed writer's torn tail, a put-*.tmp left by the one-file-per-key
// layout, and three garbage entries — one that is not a cached front,
// one that decodes but whose first front point is off its witness
// run's value, and one whose record no longer matches its CRC. verify
// deletes exactly the garbage, gc removes the legacy file, compacts
// the dead writer's segment (the torn tail with it) and brings the
// tier under the size cap, and a warm sweep over the survivors still
// hits — with output byte-identical to the cold run.
func TestCacheLifecycleAcceptance(t *testing.T) {
	dir := mixedDir(t, false)
	cacheDir := filepath.Join(t.TempDir(), "fronts")

	cold, err := sweepDir(t, dir, "-cache-dir", cacheDir)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	keys, vals := cacheEntries(t, cacheDir)
	if len(keys) < 3 {
		t.Fatalf("want >= 3 cache entries, got %d", len(keys))
	}

	offWitness := strings.Replace(string(vals[1]), `"front":[{"cmax":`, `"front":[{"cmax":1`, 1)
	if offWitness == string(vals[1]) {
		t.Fatal("the off-witness corruption did not apply")
	}
	planted := plantEntries(t, cacheDir, keys[:3], [][]byte{[]byte("not a cached front"), []byte(offWitness), vals[2]})
	data, err := os.ReadFile(planted)
	if err != nil {
		t.Fatal(err)
	}
	// Key 2's value no longer matches its CRC, and the writer died
	// mid-record.
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(planted, append(data, "torn"...), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(cacheDir, "put-crashed.tmp")
	if err := os.WriteFile(stale, []byte("torn"), 0o600); err != nil {
		t.Fatal(err)
	}

	var stats strings.Builder
	if err := runCache([]string{"stats", "-dir", cacheDir}, &stats); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if want := fmt.Sprintf("entries: %d\n", len(keys)); !strings.Contains(stats.String(), want) {
		t.Errorf("stats output missing %q:\n%s", want, stats.String())
	}

	var verify strings.Builder
	if err := runCache([]string{"verify", "-dir", cacheDir}, &verify); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !strings.Contains(verify.String(), "removed 3 garbage entries") {
		t.Errorf("verify did not remove exactly the three garbage entries:\n%s", verify.String())
	}
	left, _ := cacheEntries(t, cacheDir)
	if len(left) != len(keys)-3 || slices.ContainsFunc(left, func(k sched.CacheKey) bool { return slices.Contains(keys[:3], k) }) {
		t.Errorf("after verify the cache holds %v, want all but the first 3 of %v", left, keys)
	}

	var gc strings.Builder
	if err := runCache([]string{"gc", "-dir", cacheDir, "-max-bytes", "1"}, &gc); err != nil {
		t.Fatalf("gc: %v", err)
	}
	for _, want := range []string{"removed 1 legacy files", "live: 0 entries (0 bytes)"} {
		if !strings.Contains(gc.String(), want) {
			t.Errorf("gc output missing %q:\n%s", want, gc.String())
		}
	}
	for _, name := range []string{stale, planted} {
		if _, err := os.Stat(name); err == nil {
			t.Errorf("%s still present after gc", filepath.Base(name))
		}
	}

	// The golden byte-equality contract: gc evicted everything, so the
	// next run recomputes — and must still emit the cold bytes.
	rebuilt, err := sweepDir(t, dir, "-cache-dir", cacheDir)
	if err != nil {
		t.Fatalf("rebuilt: %v", err)
	}
	if rebuilt != cold {
		t.Errorf("output differs after gc evicted the cache:\ngot:\n%s\nwant:\n%s", rebuilt, cold)
	}

	// A generous cap keeps everything; the warm run hits every entry.
	var gc2 strings.Builder
	if err := runCache([]string{"gc", "-dir", cacheDir, "-max-bytes", "100000000"}, &gc2); err != nil {
		t.Fatalf("gc2: %v", err)
	}
	if !strings.Contains(gc2.String(), "evicted 0 by age, 0 by size") {
		t.Errorf("generous cap evicted entries:\n%s", gc2.String())
	}
	var warm string
	stderr := captureStderr(t, func() {
		warm, err = sweepDir(t, dir, "-cache-dir", cacheDir)
	})
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if warm != cold {
		t.Error("warm output differs from cold after a non-evicting gc")
	}
	if !strings.Contains(stderr, "cache") || strings.Contains(stderr, "cache 0 hits") {
		t.Errorf("warm run after non-evicting gc reported no hits:\n%s", stderr)
	}
}

// gc's -max-age flag reaches the sweep: a day's cap keeps every fresh
// entry, a nanosecond's evicts them all.
func TestCacheGCMaxAgeFlag(t *testing.T) {
	dir := mixedDir(t, false)
	cacheDir := filepath.Join(t.TempDir(), "fronts")
	if _, err := sweepDir(t, dir, "-cache-dir", cacheDir); err != nil {
		t.Fatal(err)
	}
	keys, _ := cacheEntries(t, cacheDir)
	if len(keys) < 2 {
		t.Fatalf("want >= 2 entries, got %d", len(keys))
	}
	for _, tc := range []struct {
		maxAge string
		want   string
	}{
		{"24h", "evicted 0 by age"},
		{"1ns", fmt.Sprintf("evicted %d by age", len(keys))},
	} {
		var gc strings.Builder
		if err := runCache([]string{"gc", "-dir", cacheDir, "-max-age", tc.maxAge}, &gc); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(gc.String(), tc.want) {
			t.Errorf("-max-age %s: output missing %q:\n%s", tc.maxAge, tc.want, gc.String())
		}
	}
	if left, _ := cacheEntries(t, cacheDir); len(left) != 0 {
		t.Errorf("%d entries survived -max-age 1ns", len(left))
	}
}
