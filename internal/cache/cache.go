// Package cache is a content-addressed store for sweep artifacts.
//
// The paper's experiments are embarrassingly repetitive: the same
// instances and task DAGs are re-swept across runs, grids, seeds and
// machines. This package gives every work item a canonical byte
// serialization, addresses cached values by the SHA-256 of those bytes
// plus a configuration fingerprint, and stores values in two tiers —
// an in-memory LRU and a persistent BlobStore (by default a DirStore:
// a directory of append-only segment files, one per writer process;
// any implementation of the interface slots in, which is what lets
// shards on different machines share one store).
//
// Keys are *semantic*: the canonical bytes normalize away everything
// the JSON readers already canonicalize (task IDs are positional,
// names are cosmetic), so two files describing the same instance with
// implicit versus explicit sequential IDs hash equal.
//
// The disk tier is corruption-tolerant by contract: a missing,
// truncated or garbled entry is a miss, never an error — callers
// recompute and overwrite. Every record carries its full key and a
// CRC, and a record is indexed only once it is complete, so concurrent
// readers (shard subprocesses sharing a cache directory) never observe
// a torn entry.
//
// All methods are safe for concurrent use.
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"storagesched/internal/dag"
	"storagesched/internal/model"
)

// Key is a content address: SHA-256 over the item's canonical bytes
// and the configuration fingerprint.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Hash64 folds the key to 64 bits — the shard-affinity hash (identical
// items route to identical shards, keeping shard-local caches hot) and
// DirStore's index key.
func (k Key) Hash64() uint64 { return binary.BigEndian.Uint64(k[:8]) }

// KeyFor addresses a value by canonical item bytes plus an opaque
// configuration fingerprint (the grid, algorithm and tie-break
// selection that determine the value). The two parts are length-framed
// so no concatenation of one can collide with another split.
func KeyFor(canonical []byte, fingerprint string) Key {
	h := sha256.New()
	var frame [8]byte
	binary.BigEndian.PutUint64(frame[:], uint64(len(canonical)))
	h.Write(frame[:])
	h.Write(canonical)
	h.Write([]byte(fingerprint))
	var k Key
	h.Sum(k[:0])
	return k
}

// CanonicalInstance returns the canonical byte serialization of an
// independent-task instance. The encoding is positional: task IDs and
// names are omitted, so any ID labelling the JSON readers accept
// (implicit all-zero IDs or explicit sequential ones) and any cosmetic
// naming serialize — and therefore hash — identically. Only m and the
// (p, s) vectors, which are what every algorithm consumes, contribute.
func CanonicalInstance(in *model.Instance) []byte {
	buf := make([]byte, 0, 16+12*len(in.Tasks))
	buf = append(buf, "inst|m="...)
	buf = strconv.AppendInt(buf, int64(in.M), 10)
	buf = append(buf, "|t="...)
	for i, t := range in.Tasks {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, t.P, 10)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, t.S, 10)
	}
	return buf
}

// CanonicalGraph returns the canonical byte serialization of a task
// DAG: the instance part (positional, ID- and name-invariant like
// CanonicalInstance) plus the sorted arc list. An edgeless graph still
// serializes distinctly from the equivalent instance — Algorithm
// selection differs between the two kinds, so they must never alias.
func CanonicalGraph(g *dag.Graph) []byte {
	n := g.N()
	buf := make([]byte, 0, 24+12*n+8*g.NumEdges())
	buf = append(buf, "graph|m="...)
	buf = strconv.AppendInt(buf, int64(g.M), 10)
	buf = append(buf, "|t="...)
	for i := 0; i < n; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, g.P[i], 10)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, g.S[i], 10)
	}
	buf = append(buf, "|e="...)
	first := true
	for u := 0; u < n; u++ {
		for _, v := range g.Succs(u) {
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = strconv.AppendInt(buf, int64(u), 10)
			buf = append(buf, '>')
			buf = strconv.AppendInt(buf, int64(v), 10)
		}
	}
	return buf
}

// Config parameterizes a Cache.
type Config struct {
	// Dir enables the on-disk tier: a DirStore over this directory
	// (created if absent), which appends every entry to this process's
	// own segment file and indexes the segments of every process that
	// shares the directory. Empty disables it (unless Store supplies
	// another persistent tier).
	Dir string

	// Store, when non-nil, is the persistent tier behind the memory
	// LRU — any BlobStore, not just a directory. It takes precedence
	// over Dir. The cache's contracts (atomic writes, corruption
	// tolerance) hold exactly as far as the store keeps its own.
	Store BlobStore

	// MemEntries bounds the in-memory LRU tier's entry count. 0 means
	// DefaultMemEntries; negative disables the memory tier entirely
	// (store-only, useful when many shard processes share Dir).
	MemEntries int

	// MemBytes bounds the in-memory LRU tier's resident bytes. 0
	// means DefaultMemBytes; negative means no byte bound (entry
	// count alone governs). A single value larger than the budget is
	// never promoted to memory — it is still served from the
	// persistent tier.
	MemBytes int64

	// MaxBytes and MaxAge are the lifecycle defaults a GC sweep with
	// a zero GCPolicy enforces on the persistent tier: total bytes
	// capped at MaxBytes (oldest entries evicted first), entries
	// older than MaxAge evicted regardless. Zero leaves the axis
	// unbounded. They bound nothing by themselves — something must
	// call GC (schedd's background ticker, `schedcli cache gc`).
	MaxBytes int64
	MaxAge   time.Duration
}

// DefaultMemEntries is the memory-tier entry capacity when
// Config.MemEntries is zero.
const DefaultMemEntries = 4096

// DefaultMemBytes is the memory-tier byte budget when Config.MemBytes
// is zero: the entry-count bound alone would admit arbitrarily large
// values (a disk hit used to promote unconditionally), so the byte
// budget is what actually bounds resident memory.
const DefaultMemBytes int64 = 64 << 20

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits and Misses count Get outcomes, net of rejections: a value
	// the caller rejects (Reject) counts as a miss.
	Hits, Misses int64
	// MemHits and DiskHits attribute Get's hits to their tier (DiskHits
	// counts the persistent BlobStore tier, whatever backs it),
	// rejected ones included: MemHits + DiskHits = Hits + Rejected.
	MemHits, DiskHits int64
	// Rejected counts values Get returned that the caller then
	// rejected as unusable.
	Rejected int64
	// Puts counts stored values; Evictions counts LRU removals.
	Puts, Evictions int64
	// WriteErrors counts failed best-effort disk writes (the cache
	// stays correct — the entry is simply absent).
	WriteErrors int64
	// MemBytes is the memory tier's resident bytes right now.
	MemBytes int64
	// GCRuns counts lifecycle sweeps (Cache.GC calls).
	GCRuns int64
	// GCEvictions and GCEvictedBytes count persistent-tier entries
	// (and their bytes) removed by lifecycle sweeps' age/size caps.
	GCEvictions, GCEvictedBytes int64
	// GCLegacyRemoved counts files of the one-file-per-key layout
	// older versions wrote (<key>.json entries, put-*.tmp
	// intermediates) that lifecycle sweeps removed.
	GCLegacyRemoved int64
	// GCVerifyRemoved counts garbage entries deleted by Verify.
	GCVerifyRemoved int64
}

// Cache is the two-tier content-addressed store. The zero value is not
// usable; construct with New. A nil *Cache is a valid "caching off"
// value: Get always misses and Put is a no-op.
type Cache struct {
	store BlobStore // persistent tier; nil when memory-only

	mu       sync.Mutex
	entries  map[Key]*entry
	head     *entry // most recently used
	tail     *entry // least recently used
	cap      int
	memBytes int64 // byte budget; <= 0 means unbounded
	bytes    int64 // resident memory-tier bytes

	pol lifecycleDefaults

	hits, misses, memHits, diskHits     atomic.Int64
	rejected                            atomic.Int64
	puts, evictions, writeErrors        atomic.Int64
	gcRuns, gcEvictions, gcEvictedBytes atomic.Int64
	gcLegacyRemoved, gcVerifyRemoved    atomic.Int64
}

// lifecycleDefaults are the Config-supplied caps a zero GCPolicy
// resolves to.
type lifecycleDefaults struct {
	maxBytes int64
	maxAge   time.Duration
}

// entry is one memory-tier value on the intrusive LRU list.
type entry struct {
	key        Key
	val        []byte
	prev, next *entry
}

// New builds a cache from cfg, creating the disk directory when one is
// configured. At least one tier is always active (MemEntries defaults
// when no persistent tier is given either).
func New(cfg Config) (*Cache, error) {
	capN := cfg.MemEntries
	if capN == 0 {
		capN = DefaultMemEntries
	}
	if capN < 0 {
		capN = 0
	}
	if cfg.Dir == "" && cfg.Store == nil && capN == 0 {
		// Store-only was requested without a persistent tier; a cache
		// with no tier at all would silently never hit, so keep the
		// documented invariant instead: the memory tier stays on at
		// its default.
		capN = DefaultMemEntries
	}
	memBytes := cfg.MemBytes
	if memBytes == 0 {
		memBytes = DefaultMemBytes
	}
	c := &Cache{
		store:    cfg.Store,
		cap:      capN,
		memBytes: memBytes,
		pol:      lifecycleDefaults{maxBytes: cfg.MaxBytes, maxAge: cfg.MaxAge},
	}
	if cfg.Store == nil && cfg.Dir != "" {
		st, err := NewDirStore(cfg.Dir)
		if err != nil {
			return nil, err
		}
		c.store = st
	}
	if capN > 0 {
		c.entries = make(map[Key]*entry)
	}
	return c, nil
}

// Get returns the value stored at key. A memory hit refreshes the
// entry's LRU position; a disk hit promotes the value to the memory
// tier. Any disk problem — absent, unreadable, empty — is a miss.
func (c *Cache) Get(key Key) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	if c.cap > 0 {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.moveToFront(e)
			val := e.val
			c.mu.Unlock()
			c.hits.Add(1)
			c.memHits.Add(1)
			return val, true
		}
		c.mu.Unlock()
	}
	if c.store != nil {
		if val, ok := c.store.Get(key); ok && len(val) > 0 {
			c.promote(key, val)
			c.hits.Add(1)
			c.diskHits.Add(1)
			return val, true
		}
	}
	c.misses.Add(1)
	return nil, false
}

// Reject records that the value Get just returned for key is unusable
// (it does not decode, or fails the caller's checks): the hit counts as
// a miss and as Rejected, and the memory tier drops its copy, so the
// next Get goes back to the persistent tier. The caller recomputes the
// value and Puts it, which replaces the persistent copy.
func (c *Cache) Reject(key Key) {
	if c == nil {
		return
	}
	c.hits.Add(-1)
	c.misses.Add(1)
	c.rejected.Add(1)
	if c.cap == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.unlink(e)
		delete(c.entries, key)
		c.bytes -= int64(len(e.val))
	}
}

// Put stores val at key in every configured tier. Disk writes are
// best-effort and atomic: failures are counted in Stats.WriteErrors
// and the entry simply stays absent. val must not be mutated by the
// caller afterwards.
func (c *Cache) Put(key Key, val []byte) {
	if c == nil || len(val) == 0 {
		return
	}
	c.puts.Add(1)
	c.promote(key, val)
	if c.store == nil {
		return
	}
	if err := c.store.Put(key, val); err != nil {
		c.writeErrors.Add(1)
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		MemHits:         c.memHits.Load(),
		DiskHits:        c.diskHits.Load(),
		Rejected:        c.rejected.Load(),
		Puts:            c.puts.Load(),
		Evictions:       c.evictions.Load(),
		WriteErrors:     c.writeErrors.Load(),
		MemBytes:        c.MemBytes(),
		GCRuns:          c.gcRuns.Load(),
		GCEvictions:     c.gcEvictions.Load(),
		GCEvictedBytes:  c.gcEvictedBytes.Load(),
		GCLegacyRemoved: c.gcLegacyRemoved.Load(),
		GCVerifyRemoved: c.gcVerifyRemoved.Load(),
	}
}

// Len returns the number of memory-tier entries (for tests and
// capacity accounting).
func (c *Cache) Len() int {
	if c == nil || c.cap == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// MemBytes returns the memory tier's resident bytes.
func (c *Cache) MemBytes() int64 {
	if c == nil || c.cap == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// promote inserts (or refreshes) a memory-tier entry, evicting from
// the LRU tail past the entry-count cap or the byte budget. A single
// value larger than the whole byte budget is refused — promoting it
// would evict the entire tier for one entry — but remains a valid hit
// from the persistent tier.
func (c *Cache) promote(key Key, val []byte) {
	if c.cap == 0 {
		return
	}
	if c.memBytes > 0 && int64(len(val)) > c.memBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.bytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		c.moveToFront(e)
	} else {
		e := &entry{key: key, val: val}
		c.entries[key] = e
		c.pushFront(e)
		c.bytes += int64(len(val))
	}
	for len(c.entries) > c.cap || (c.memBytes > 0 && c.bytes > c.memBytes) {
		lru := c.tail
		c.unlink(lru)
		delete(c.entries, lru.key)
		c.bytes -= int64(len(lru.val))
		c.evictions.Add(1)
	}
}

// pushFront links e as the most recently used entry. Callers hold mu.
func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// unlink removes e from the LRU list. Callers hold mu.
func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront refreshes e's LRU position. Callers hold mu.
func (c *Cache) moveToFront(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
