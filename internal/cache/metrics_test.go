package cache

import (
	"bytes"
	"strings"
	"testing"

	"storagesched/internal/metrics"
)

// TestRegisterMetricsReadsLiveCounters: the sched_cache_* families are
// callback collectors over the cache's own atomics, so a scrape after
// traffic must agree with Stats exactly — parity by construction.
func TestRegisterMetricsReadsLiveCounters(t *testing.T) {
	c, err := New(Config{MemEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg)

	key := KeyFor([]byte("canonical instance bytes"), "deltas=1")
	if _, ok := c.Get(key); ok {
		t.Fatal("cold Get hit; want miss")
	}
	c.Put(key, []byte("front"))
	if _, ok := c.Get(key); !ok {
		t.Fatal("warm Get missed; want hit")
	}

	st := c.Stats()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for family, want := range map[string]int64{
		"sched_cache_entries":            int64(c.Len()),
		"sched_cache_hits_total":         st.Hits,
		"sched_cache_mem_hits_total":     st.MemHits,
		"sched_cache_disk_hits_total":    st.DiskHits,
		"sched_cache_misses_total":       st.Misses,
		"sched_cache_rejected_total":     st.Rejected,
		"sched_cache_puts_total":         st.Puts,
		"sched_cache_evictions_total":    st.Evictions,
		"sched_cache_write_errors_total": st.WriteErrors,
	} {
		line := family + " " + itoa(want) + "\n"
		if !strings.Contains(text, line) {
			t.Errorf("scrape missing %q (Stats: %+v):\n%s", line, st, text)
		}
	}
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Errorf("traffic did not land: %+v", st)
	}
}

// TestRegisterMetricsNilSafe: registering a nil cache or onto a nil
// registry is a no-op, so front ends wire unconditionally.
func TestRegisterMetricsNilSafe(t *testing.T) {
	var c *Cache
	c.RegisterMetrics(metrics.NewRegistry())
	c2, err := New(Config{MemEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	c2.RegisterMetrics(nil)
}

// itoa avoids pulling strconv into the test imports for one call site.
func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
