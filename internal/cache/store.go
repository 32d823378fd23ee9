package cache

// The blob-store seam. BlobStore is the five operations the cache and
// its lifecycle need from a persistent tier; DirStore is the
// directory-backed implementation, and a remote store (object storage,
// a cache service) can slot in via Config.Store without the Cache, the
// engine or the lifecycle sweep changing at all.
//
// The contract every implementation must keep: Put is atomic (a
// concurrent Get sees the whole value or a miss, never a torn prefix)
// and Get is corruption-tolerant (absent, torn or damaged blobs report
// a miss, not an error).
//
// DirStore keeps append-only segment files, one per writer, rather
// than a file per key: creating an inode per entry costs more CPU than
// the solver jobs of a cold sweep. A Put is one write(2) to the
// writer's own segment, and the index from keys to records is built
// by reading the record headers when the store opens.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// BlobInfo describes one stored blob: its key plus the metadata the
// lifecycle sweep ranks entries by.
type BlobInfo struct {
	// Key is the blob's content address.
	Key Key
	// Size is the stored value's length in bytes.
	Size int64
	// ModTime is when the blob was last written — the age axis of the
	// eviction sweep.
	ModTime time.Time
}

// BlobStore is the storage seam behind the cache's persistent tier.
// Implementations must be safe for concurrent use, including across
// processes where the medium allows it (DirStore gives each writer
// process its own append-only segment for exactly that).
type BlobStore interface {
	// Get returns the value stored at key. Absent, empty or unreadable
	// blobs are a miss (false), never an error: callers recompute and
	// overwrite.
	Get(key Key) ([]byte, bool)

	// Put atomically stores val at key: a reader never observes a torn
	// value. Errors are reported so callers can count them, but a
	// failed Put must leave the store consistent (the old value, or
	// absence — not a partial write).
	Put(key Key, val []byte) error

	// List enumerates the stored blobs in deterministic (key) order.
	// Blobs written or deleted concurrently may or may not appear.
	List() ([]BlobInfo, error)

	// Stat returns the metadata of the blob at key, or false when it
	// is absent or unusable.
	Stat(key Key) (BlobInfo, bool)

	// Delete removes the blob at key. Deleting an absent blob is not
	// an error — concurrent sweeps race benignly.
	Delete(key Key) error
}

// The segment layout. A DirStore directory holds segment files named
// seg-<pid>-<nonce>.log, each a sequence of records
//
//	key [32] | write time, Unix ns [8] | value length [4] | CRC-32C [4] | value
//
// with big-endian integers. The CRC covers the first 44 header bytes
// and the value, so a record whose key, time, length or value was
// damaged is a miss. A record with an empty value is a tombstone:
// Delete appends one.
const (
	segPrefix = "seg-"
	segSuffix = ".log"
	recHeader = 48

	// segRotate is the size past which a writer starts a new segment
	// and gives up its lock on the old one, which compaction can then
	// reclaim.
	segRotate = 64 << 20

	// A record's location in the index is its segment number above
	// locOffBits and its offset below them. A location that overflows
	// either part points at the wrong record, whose key then fails to
	// match: a miss.
	locOffBits = 40
	maxSegOff  = 1 << locOffBits

	// dirSettle is how recent a directory mtime must be for the next
	// refresh to list the directory again even though the mtime has
	// not moved: file systems stamp mtimes with a coarse clock, so a
	// segment created just after a listing can leave it unchanged.
	dirSettle = 100 * time.Millisecond
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DirStore is the directory-backed BlobStore: every writer appends to
// its own segment files, so concurrent readers — including shard
// subprocesses sharing the directory — never observe a torn entry. The
// zero value is not usable; construct with NewDirStore.
type DirStore struct {
	dir string

	mu      sync.Mutex
	idx     map[uint64]uint64 // Key.Hash64 → segment number << locOffBits | record offset
	segs    []*segment        // by segment number; nil once dropped
	names   map[string]*segment
	w       *segment  // this store's writer segment; nil until the first write
	buf     []byte    // the record being appended
	dirTime time.Time // the directory's mtime at the last listing
}

// segment is one segment file this store has open.
type segment struct {
	num  int
	name string
	f    *os.File
	end  int64 // offset past the last indexed record
	seen int64 // file size at the last scan of its tail
	own  bool  // written by this store, which holds its lock
}

// NewDirStore opens (creating if absent) a directory blob store and
// indexes every segment in it. Opening reads every record header, so
// it costs time in proportion to the store.
func NewDirStore(dir string) (*DirStore, error) {
	if dir == "" {
		return nil, errors.New("cache: blob store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: creating %s: %w", dir, err)
	}
	s := &DirStore{dir: dir, idx: make(map[uint64]uint64), names: make(map[string]*segment)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.refresh(); err != nil {
		return nil, fmt.Errorf("cache: opening %s: %w", dir, err)
	}
	return s, nil
}

// record is one parsed record header.
type record struct {
	key  Key
	time int64
	n    int64 // value length; 0 is a tombstone
	crc  uint32
}

func parseRecord(hdr []byte) record {
	var r record
	copy(r.key[:], hdr)
	r.time = int64(binary.BigEndian.Uint64(hdr[32:]))
	r.n = int64(binary.BigEndian.Uint32(hdr[40:]))
	r.crc = binary.BigEndian.Uint32(hdr[44:])
	return r
}

// intact reports whether rec, one whole record, matches its CRC.
func intact(rec []byte) bool {
	crc := crc32.Update(crc32.Checksum(rec[:recHeader-4], castagnoli), castagnoli, rec[recHeader:])
	return crc == binary.BigEndian.Uint32(rec[recHeader-4:])
}

// appendRecord appends the record storing val at key, written at t.
func appendRecord(dst []byte, key Key, t int64, val []byte) []byte {
	start := len(dst)
	dst = append(dst, key[:]...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(t))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(val)))
	crc := crc32.Update(crc32.Checksum(dst[start:], castagnoli), castagnoli, val)
	dst = binary.BigEndian.AppendUint32(dst, crc)
	return append(dst, val...)
}

// scanRecords calls fn for every complete record between from and to
// in f, reading headers in order and skipping values, and returns the
// offset past the last one. It stops at the first record that does
// not fit before to: a torn tail, or a damaged length.
func scanRecords(f *os.File, from, to int64, fn func(off int64, r record)) int64 {
	size := to - from
	if size < recHeader {
		return from
	}
	r := bufio.NewReaderSize(io.NewSectionReader(f, from, size), int(min(size, 64<<10)))
	var hdr [recHeader]byte
	off := from
	for to-off >= recHeader {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break
		}
		rec := parseRecord(hdr[:])
		if rec.n > to-off-recHeader {
			break
		}
		if _, err := r.Discard(int(rec.n)); err != nil {
			break
		}
		fn(off, rec)
		off += recHeader + rec.n
	}
	return off
}

func loc(sg *segment, off int64) uint64 { return uint64(sg.num)<<locOffBits | uint64(off) }

// header reads the header of the record at l. Callers hold mu.
func (s *DirStore) header(l uint64) (record, bool) {
	sg := s.segs[l>>locOffBits]
	if sg == nil {
		return record{}, false
	}
	var hdr [recHeader]byte
	if _, err := sg.f.ReadAt(hdr[:], int64(l&(maxSegOff-1))); err != nil {
		return record{}, false
	}
	return parseRecord(hdr[:]), true
}

// index points key's entry at the record r found at l, unless the
// entry already points at a record of another segment written later.
// Within one segment the later record always wins. Callers hold mu.
func (s *DirStore) index(r record, l uint64) {
	h := r.key.Hash64()
	if old, ok := s.idx[h]; ok && old>>locOffBits != l>>locOffBits {
		if prev, ok := s.header(old); ok && prev.time > r.time {
			return
		}
	}
	s.idx[h] = l
}

// refresh brings the index up to date with what other writers did:
// one stat of the directory tells whether segments were created or
// removed since the last listing, and the complete new records at the
// tail of every segment this store does not write are indexed.
// Segments that vanished — another process compacted them — are
// dropped after the tails are read, so their records' copies are
// indexed first. It reports whether the index changed. Callers hold
// mu.
func (s *DirStore) refresh() (bool, error) {
	now := time.Now()
	fi, err := os.Stat(s.dir)
	if err != nil {
		return false, err
	}
	var gone []*segment
	if mt := fi.ModTime(); !mt.Equal(s.dirTime) || now.Sub(mt) < dirSettle {
		names, err := readNames(s.dir)
		if err != nil {
			return false, err
		}
		s.dirTime = mt
		present := make(map[string]bool, len(s.names))
		for _, name := range names {
			if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
				continue
			}
			present[name] = true
			if s.names[name] != nil {
				continue
			}
			f, err := os.Open(filepath.Join(s.dir, name))
			if err != nil {
				continue // removed since the listing
			}
			if fi, err := f.Stat(); err != nil || !fi.Mode().IsRegular() {
				f.Close()
				continue
			}
			s.add(name, f)
		}
		for _, sg := range s.segs {
			if sg != nil && !sg.own && !present[sg.name] {
				gone = append(gone, sg)
			}
		}
	}
	changed := false
	for _, sg := range s.segs {
		if sg != nil && !sg.own && s.scanTail(sg) {
			changed = true
		}
	}
	for _, sg := range gone {
		s.drop(sg)
		changed = true
	}
	return changed, nil
}

// readNames lists a directory's entry names, unsorted.
func readNames(dir string) ([]string, error) {
	d, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	return d.Readdirnames(-1)
}

// add registers an open segment file under the next segment number.
// Callers hold mu.
func (s *DirStore) add(name string, f *os.File) *segment {
	sg := &segment{num: len(s.segs), name: name, f: f}
	s.segs = append(s.segs, sg)
	s.names[name] = sg
	return sg
}

// drop closes a segment and forgets its records. Callers hold mu.
func (s *DirStore) drop(sg *segment) {
	sg.f.Close()
	s.segs[sg.num] = nil
	delete(s.names, sg.name)
	for h, l := range s.idx {
		if int(l>>locOffBits) == sg.num {
			delete(s.idx, h)
		}
	}
}

// scanTail indexes the complete records appended to sg since its last
// scan; a file whose size has not moved is not read. It reports
// whether any record was indexed. Callers hold mu.
func (s *DirStore) scanTail(sg *segment) bool {
	fi, err := sg.f.Stat()
	if err != nil || fi.Size() == sg.seen {
		return false
	}
	sg.seen = fi.Size()
	from := sg.end
	sg.end = scanRecords(sg.f, from, min(sg.seen, maxSegOff), func(off int64, r record) {
		s.index(r, loc(sg, off))
	})
	return sg.end != from
}

// lookup returns the header of the record indexed for key, with the
// file it is in, when it is key's and not a tombstone.
func (s *DirStore) lookup(key Key) (record, *os.File, int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.idx[key.Hash64()]
	if !ok {
		return record{}, nil, 0, false
	}
	r, ok := s.header(l)
	if !ok || r.key != key || r.n == 0 {
		return record{}, nil, 0, false
	}
	return r, s.segs[l>>locOffBits].f, int64(l & (maxSegOff - 1)), true
}

// retry refreshes the index after a miss and reports whether looking
// again can find anything new.
func (s *DirStore) retry() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed, _ := s.refresh()
	return changed
}

// Get implements BlobStore: an absent key, a tombstone, a hash
// collision, a short read or a CRC mismatch is a miss. A miss first
// picks up what other writers appended since the last look.
func (s *DirStore) Get(key Key) ([]byte, bool) {
	if val, ok := s.get(key); ok || !s.retry() {
		return val, ok
	}
	return s.get(key)
}

func (s *DirStore) get(key Key) ([]byte, bool) {
	r, f, off, ok := s.lookup(key)
	if !ok {
		return nil, false
	}
	buf := make([]byte, recHeader+r.n)
	if _, err := f.ReadAt(buf, off); err != nil || parseRecord(buf) != r || !intact(buf) {
		return nil, false
	}
	return buf[recHeader:], true
}

// Stat implements BlobStore from the record header alone: a record
// whose value is damaged is still reported, so Verify can delete it.
func (s *DirStore) Stat(key Key) (BlobInfo, bool) {
	r, _, _, ok := s.lookup(key)
	if !ok && s.retry() {
		r, _, _, ok = s.lookup(key)
	}
	if !ok {
		return BlobInfo{}, false
	}
	return BlobInfo{Key: key, Size: r.n, ModTime: time.Unix(0, r.time)}, true
}

// Put implements BlobStore: one record appended to this store's
// segment in a single write.
func (s *DirStore) Put(key Key, val []byte) error {
	return s.put(key, val, time.Now().UnixNano())
}

// put appends a record written at t; an empty val is a tombstone.
func (s *DirStore) put(key Key, val []byte, t int64) error {
	if len(val) > math.MaxUint32 {
		return fmt.Errorf("cache: %d-byte value is too large for a segment record", len(val))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = appendRecord(s.buf[:0], key, t, val)
	err := s.write(s.buf, key.Hash64())
	if cap(s.buf) > 64<<10 {
		s.buf = nil
	}
	return err
}

// write appends one encoded record to this store's segment, starting
// a new segment first when there is none or this one is full, and
// indexes it. Callers hold mu.
func (s *DirStore) write(rec []byte, h uint64) error {
	if s.w == nil || (s.w.end > 0 && s.w.end+int64(len(rec)) > segRotate) {
		if err := s.rotate(); err != nil {
			return err
		}
	}
	w := s.w
	if _, err := w.f.Write(rec); err != nil {
		// A short write leaves a torn record behind: cut it off, and
		// write the next record to a new segment either way, so a
		// failed cut only leaves a torn tail that readers skip.
		_ = w.f.Truncate(w.end)
		s.retire()
		return err
	}
	s.idx[h] = loc(w, w.end)
	w.end += int64(len(rec))
	w.seen = w.end
	return nil
}

// segSeq makes segment names unique within a process.
var segSeq atomic.Uint64

// rotate retires this store's segment, if any, and creates and locks
// a new one. Callers hold mu.
func (s *DirStore) rotate() error {
	s.retire()
	for {
		name := segPrefix + strconv.Itoa(os.Getpid()) + "-" +
			strconv.FormatUint(uint64(time.Now().UnixNano())+segSeq.Add(1), 36) + segSuffix
		f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_RDWR|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return err
		}
		// The lock marks the segment as a live writer's; compaction
		// only takes segments whose lock it can take itself. Nothing
		// is written before the lock is held, and compaction skips
		// empty segments, so a new segment is never taken. Where the
		// lock is unavailable, compaction takes no segment at all.
		lockSegment(f)
		s.w = s.add(name, f)
		s.w.own = true
		return nil
	}
}

// retire stops writing to this store's segment and releases its lock:
// the segment is read like any other from now on, and compaction may
// reclaim it. Callers hold mu.
func (s *DirStore) retire() {
	if s.w == nil {
		return
	}
	unlockSegment(s.w.f)
	s.w.own = false
	s.w = nil
}

// Delete implements BlobStore by appending a tombstone; an absent
// blob is success. The tombstone is stamped no earlier than the
// record it deletes, so it wins wherever the two are compared.
func (s *DirStore) Delete(key Key) error {
	info, ok := s.Stat(key)
	if !ok {
		return nil
	}
	return s.put(key, nil, max(time.Now().UnixNano(), info.ModTime.UnixNano()))
}

// List implements BlobStore: the live record of every key, in key
// order.
func (s *DirStore) List() ([]BlobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.refresh(); err != nil {
		return nil, fmt.Errorf("cache: listing %s: %w", s.dir, err)
	}
	infos := make([]BlobInfo, 0, len(s.idx))
	for _, sg := range s.segs {
		if sg == nil {
			continue
		}
		scanRecords(sg.f, 0, sg.end, func(off int64, r record) {
			if r.n > 0 && s.idx[r.key.Hash64()] == loc(sg, off) {
				infos = append(infos, BlobInfo{Key: r.key, Size: r.n, ModTime: time.Unix(0, r.time)})
			}
		})
	}
	slices.SortFunc(infos, func(a, b BlobInfo) int { return bytes.Compare(a.Key[:], b.Key[:]) })
	return infos, nil
}

// compact reclaims the space of the segments no live writer holds:
// their current records are appended, write times kept, to this
// store's own segment, and their files are removed. Superseded and
// damaged records, torn tails and tombstones that no longer shadow
// anything are left behind. A lone dead segment with nothing to
// reclaim stays as it is. First, compact removes the <key>.json
// entries and put-*.tmp intermediates of the one-file-per-key layout
// older versions wrote, without importing them. It reports the legacy
// files removed and the segments compacted.
//
// The store is locked while compact runs.
func (s *DirStore) compact() (legacy, compacted int, err error) {
	names, err := readNames(s.dir)
	if err != nil {
		return 0, 0, err
	}
	for _, name := range names {
		if isLegacyName(name) && os.Remove(filepath.Join(s.dir, name)) == nil {
			legacy++
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.refresh(); err != nil {
		return legacy, 0, err
	}
	var dead []*segment
	isDead := map[int]bool{}
	for _, sg := range s.segs {
		if sg != nil && !sg.own && sg.seen > 0 && lockSegment(sg.f) {
			dead = append(dead, sg)
			isDead[sg.num] = true
		}
	}
	if len(dead) == 0 {
		return legacy, 0, nil
	}
	release := func() {
		for _, sg := range dead {
			unlockSegment(sg.f)
		}
	}

	// shadows reports whether a segment that stays holds a record of
	// the hash a tombstone deletes; only then is the tombstone kept.
	var held map[uint64]bool
	shadows := func(h uint64) bool {
		if held == nil {
			held = map[uint64]bool{}
			for _, sg := range s.segs {
				if sg != nil && !isDead[sg.num] {
					scanRecords(sg.f, 0, sg.end, func(_ int64, r record) {
						if r.n > 0 {
							held[r.key.Hash64()] = true
						}
					})
				}
			}
		}
		return held[h]
	}
	type copyRec struct {
		sg  *segment
		off int64
		r   record
	}
	var keep []copyRec
	var keepBytes int64
	for _, sg := range dead {
		scanRecords(sg.f, 0, sg.end, func(off int64, r record) {
			h := r.key.Hash64()
			if s.idx[h] != loc(sg, off) || (r.n == 0 && !shadows(h)) {
				return
			}
			keep = append(keep, copyRec{sg, off, r})
			keepBytes += recHeader + r.n
		})
	}
	if len(dead) == 1 && keepBytes == dead[0].seen {
		release()
		return legacy, 0, nil
	}

	var buf []byte
	for _, c := range keep {
		buf = slices.Grow(buf[:0], int(recHeader+c.r.n))[:recHeader+c.r.n]
		if _, err := c.sg.f.ReadAt(buf, c.off); err != nil || parseRecord(buf) != c.r || !intact(buf) {
			continue // damaged: dropped with its segment
		}
		if err := s.write(buf, c.r.key.Hash64()); err != nil {
			release()
			return legacy, 0, err
		}
	}
	for _, sg := range dead {
		if err := os.Remove(filepath.Join(s.dir, sg.name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			// Its records have copies now; a later sweep retries.
			unlockSegment(sg.f)
			continue
		}
		s.drop(sg) // closing the file releases its lock
		compacted++
	}
	return legacy, compacted, nil
}

// isLegacyName reports whether name is a file of the one-file-per-key
// layout: a <64 lowercase hex>.json entry or a put-*.tmp intermediate.
func isLegacyName(name string) bool {
	if strings.HasPrefix(name, "put-") && strings.HasSuffix(name, ".tmp") {
		return true
	}
	stem, ok := strings.CutSuffix(name, ".json")
	if !ok || len(stem) != hex.EncodedLen(len(Key{})) || strings.ToLower(stem) != stem {
		return false
	}
	_, err := hex.DecodeString(stem)
	return err == nil
}
