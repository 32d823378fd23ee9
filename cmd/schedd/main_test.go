package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"storagesched/internal/cache"
)

// startDaemon runs the daemon in-process on an ephemeral port and
// returns its base URL plus a shutdown func that drains it and
// reports run's exit error.
func startDaemon(t *testing.T, args ...string) (baseURL string, shutdown func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		cancel()
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("daemon never became ready")
	}
	return "http://" + addr, func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(15 * time.Second):
			return fmt.Errorf("daemon did not exit after drain")
		}
	}
}

// smokeEnvelopes builds the request body for the schedcli smoke
// testdata: one envelope per file, named by base name, in sorted order
// — exactly the items `sweepbatch -in testdata/smoke` sweeps, so the
// response must match the CLI golden byte for byte.
func smokeEnvelopes(t *testing.T) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join("..", "schedcli", "testdata", "smoke", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatal("no smoke testdata found")
	}
	var b strings.Builder
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "{\"source\":%q,\"item\":%s}\n", filepath.Base(name), data)
	}
	return b.String()
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "schedcli", "testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestScheddGoldenOverHTTP: the daemon's streamed JSONL for the smoke
// batch must be byte-identical to the `schedcli sweepbatch` golden
// files — the same contract the CLI golden test pins, proven across
// the HTTP transport, for both the plain and the refined pipeline.
func TestScheddGoldenOverHTTP(t *testing.T) {
	base, shutdown := startDaemon(t, "-cache-mem", "64", "-workers", "2")
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	body := smokeEnvelopes(t)

	for _, tc := range []struct {
		golden string
		query  string
	}{
		{"sweepbatch.jsonl", "dmin=0.5&dmax=8&points=6"},
		{"sweepbatch_refine.jsonl", "dmin=0.5&dmax=8&points=6&refine=1&refine-gap=0.05&refine-max-points=6"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			resp, err := http.Post(base+"/v1/sweep?"+tc.query, "application/jsonl", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			got, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, got)
			}
			if want := readGolden(t, tc.golden); !bytes.Equal(got, want) {
				t.Errorf("response differs from golden %s:\n got: %s\nwant: %s", tc.golden, got, want)
			}
			if failed := resp.Trailer.Get("X-Sweep-Failed"); failed != "0" {
				t.Errorf("X-Sweep-Failed = %q, want 0", failed)
			}
		})
	}
}

// TestScheddMetricsAndPprof: /metrics serves the Prometheus text
// families and advances across a sweep; /debug/pprof/ answers only
// when -pprof is set.
func TestScheddMetricsAndPprof(t *testing.T) {
	base, shutdown := startDaemon(t, "-cache-mem", "64", "-workers", "2", "-pprof")
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	scrape := func() string {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics = %d: %s", resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
			t.Fatalf("/metrics Content-Type = %q", ct)
		}
		return string(body)
	}

	before := scrape()
	if !strings.Contains(before, "sched_sweeps_completed_total 0") {
		t.Errorf("fresh daemon scrape missing zeroed sweep counter:\n%s", before)
	}

	resp, err := http.Post(base+"/v1/sweep?dmin=0.5&dmax=8&points=6", "application/jsonl", strings.NewReader(smokeEnvelopes(t)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	after := scrape()
	if !strings.Contains(after, "sched_sweeps_completed_total 1") {
		t.Errorf("scrape after one sweep did not advance:\n%s", after)
	}
	for _, family := range []string{"sched_sweep_items_total", "sched_engine_jobs_total", "sched_cache_puts_total"} {
		if !strings.Contains(after, family) {
			t.Errorf("scrape missing family %s", family)
		}
	}

	presp, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Errorf("-pprof daemon /debug/pprof/cmdline = %d, want 200", presp.StatusCode)
	}
}

// TestScheddPprofOffByDefault: without -pprof the profile endpoints do
// not exist.
func TestScheddPprofOffByDefault(t *testing.T) {
	base, shutdown := startDaemon(t)
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	resp, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("default daemon /debug/pprof/cmdline = %d, want 404", resp.StatusCode)
	}
}

// TestScheddAccessLog: the daemon's stderr stream carries one JSON
// access line per request, with the same ID the response returns.
func TestScheddAccessLog(t *testing.T) {
	var mu sync.Mutex
	var logbuf bytes.Buffer
	logw := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return logbuf.Write(p)
	})

	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0"}, logw, ready) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		cancel()
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Error("response missing X-Request-ID header")
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("daemon exit: %v", err)
	}

	mu.Lock()
	logs := logbuf.String()
	mu.Unlock()
	var sawAccess bool
	for _, line := range strings.Split(strings.TrimSpace(logs), "\n") {
		var ev struct {
			Msg  string `json:"msg"`
			ID   string `json:"id"`
			Path string `json:"path"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		if ev.Msg == "request" && ev.Path == "/healthz" && ev.ID == id {
			sawAccess = true
		}
	}
	if !sawAccess {
		t.Errorf("no access line for /healthz request %q in logs:\n%s", id, logs)
	}
	for _, lifecycle := range []string{`"msg":"listening"`, `"msg":"drained"`} {
		if !strings.Contains(logs, lifecycle) {
			t.Errorf("logs missing lifecycle event %s:\n%s", lifecycle, logs)
		}
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestScheddLifecycle: health and readiness probes respond, cache
// stats reflect a warm sweep, and cancellation drains the daemon to a
// clean exit.
func TestScheddLifecycle(t *testing.T) {
	base, shutdown := startDaemon(t, "-cache-mem", "64")

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", code)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz = %d, want 200", code)
	}
	if code, body := get("/v1/cache/stats"); code != http.StatusOK || !strings.Contains(body, `"enabled":true`) {
		t.Errorf("/v1/cache/stats = %d %q, want 200 with enabled:true", code, body)
	}

	// Sweep twice; the second run is served entirely from the warm
	// cache. The cold run's count is 0 or 1: the smoke set carries one
	// duplicate instance, and whether it hits depends on whether the
	// original's write-back (at emission) lands before the duplicate's
	// admission — the bytes are identical either way.
	body := smokeEnvelopes(t)
	for i, wantHits := range [][]string{{"0", "1"}, {"4"}} {
		resp, err := http.Post(base+"/v1/sweep?dmin=0.5&dmax=8&points=6", "application/jsonl", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if hits := resp.Trailer.Get("X-Sweep-Cache-Hits"); !slices.Contains(wantHits, hits) {
			t.Errorf("request %d: X-Sweep-Cache-Hits = %q, want one of %v", i, hits, wantHits)
		}
	}

	if err := shutdown(); err != nil {
		t.Errorf("drain exit: %v", err)
	}
}

// TestScheddCacheGC: the daemon's background lifecycle sweep removes
// the files the one-file-per-key layout left (a crashed writer's tmp,
// a flat entry), evicts an entry past the age cap, and surfaces all of
// it in the sched_cache_gc_* metric families and the /v1/cache/stats
// snapshot.
func TestScheddCacheGC(t *testing.T) {
	cacheDir := t.TempDir()

	legacy := []string{
		filepath.Join(cacheDir, "put-crashed.tmp"),
		filepath.Join(cacheDir, strings.Repeat("ab", 32)+".json"),
	}
	for _, name := range legacy {
		if err := os.WriteFile(name, []byte("old layout"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// An entry older than the -cache-max-age cap below by the time the
	// daemon's startup sweep runs.
	store, err := cache.NewDirStore(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	aged := cache.KeyFor([]byte("aged"), "fp")
	if err := store.Put(aged, []byte("old entry")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)

	base, shutdown := startDaemon(t,
		"-cache-dir", cacheDir,
		"-cache-max-age", "10ms",
		"-cache-gc-interval", "1h") // the startup sweep is the one under test

	// The startup sweep runs asynchronously; poll the stats endpoint.
	deadline := time.Now().Add(10 * time.Second)
	var js struct {
		GCRuns          int64 `json:"gc_runs"`
		GCEvictions     int64 `json:"gc_evictions"`
		GCLegacyRemoved int64 `json:"gc_tmp_removed"`
	}
	for {
		resp, err := http.Get(base + "/v1/cache/stats")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&js)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if js.GCRuns > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if js.GCRuns == 0 {
		t.Fatal("startup gc sweep never ran")
	}
	if js.GCLegacyRemoved != 2 {
		t.Errorf("gc_tmp_removed = %d, want 2 (the legacy files)", js.GCLegacyRemoved)
	}
	if js.GCEvictions != 1 {
		t.Errorf("gc_evictions = %d, want 1 (the aged entry)", js.GCEvictions)
	}
	for _, name := range legacy {
		if _, err := os.Stat(name); err == nil {
			t.Errorf("%s survived the startup sweep", filepath.Base(name))
		}
	}
	if reopened, err := cache.NewDirStore(cacheDir); err != nil {
		t.Fatal(err)
	} else if _, ok := reopened.Get(aged); ok {
		t.Error("aged entry survived -cache-max-age")
	}

	// The families are on /metrics too.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"sched_cache_gc_runs_total",
		"sched_cache_gc_tmp_removed_total 2",
		"sched_cache_gc_evicted_entries_total 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestScheddRejectsCapsWithoutDir: lifecycle caps without a persistent
// tier are a configuration error, not a silent no-op.
func TestScheddRejectsCapsWithoutDir(t *testing.T) {
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-cache-max-bytes", "1000"}, io.Discard, nil)
	if err == nil || !strings.Contains(err.Error(), "-cache-dir") {
		t.Errorf("caps without -cache-dir: err = %v, want a -cache-dir error", err)
	}
}
