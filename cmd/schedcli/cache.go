package main

// The cache subcommand operates on a front-cache directory (the one
// sweepbatch, shard exec and schedd share via -cache-dir):
//
//	schedcli cache stats  -dir ~/.sweepcache
//	schedcli cache gc     -dir ~/.sweepcache -max-bytes 1000000 -max-age 720h
//	schedcli cache verify -dir ~/.sweepcache
//
// The directory holds append-only segment files, one per process that
// wrote to it. stats lists what the persistent tier holds. gc runs one
// lifecycle sweep: entries older than -max-age are evicted, then
// oldest entries (ties broken on key, so identical states sweep
// identically on any machine) until the tier fits -max-bytes; then the
// segments of processes that have exited are compacted into one, which
// drops evicted, superseded and damaged records and torn tails, and the
// <key>.json and put-*.tmp files of the one-file-per-key layout older
// versions wrote are removed. verify decodes every entry with the
// engine's cached-front decoder and deletes garbage. All three run
// safely against live sweeps — an evicted entry is just a future miss,
// and a live writer's segment is never compacted.

import (
	"flag"
	"fmt"
	"io"
	"time"

	sched "storagesched"
	"storagesched/internal/engine"
)

func runCache(args []string, w io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("cache: need a verb: stats | gc | verify")
	}
	switch args[0] {
	case "stats":
		return runCacheStats(args[1:], w)
	case "gc":
		return runCacheGC(args[1:], w)
	case "verify":
		return runCacheVerify(args[1:], w)
	}
	return fmt.Errorf("cache: unknown verb %q (want stats | gc | verify)", args[0])
}

// cacheDirFlag registers the shared -dir flag.
func cacheDirFlag(fs *flag.FlagSet) *string {
	return fs.String("dir", "", "front cache directory (as passed to sweepbatch -cache-dir)")
}

// runCacheStats implements `schedcli cache stats`.
func runCacheStats(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cache stats", flag.ContinueOnError)
	dir := cacheDirFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("cache stats: -dir is required")
	}
	store, err := sched.NewDirStore(*dir)
	if err != nil {
		return err
	}
	infos, err := store.List()
	if err != nil {
		return err
	}
	var bytes int64
	var oldest, newest time.Time
	for _, info := range infos {
		bytes += info.Size
		if oldest.IsZero() || info.ModTime.Before(oldest) {
			oldest = info.ModTime
		}
		if info.ModTime.After(newest) {
			newest = info.ModTime
		}
	}
	fmt.Fprintf(w, "entries: %d\n", len(infos))
	fmt.Fprintf(w, "bytes: %d\n", bytes)
	if len(infos) > 0 {
		fmt.Fprintf(w, "oldest: %s\n", oldest.UTC().Format(time.RFC3339))
		fmt.Fprintf(w, "newest: %s\n", newest.UTC().Format(time.RFC3339))
	}
	return nil
}

// runCacheGC implements `schedcli cache gc`.
func runCacheGC(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cache gc", flag.ContinueOnError)
	dir := cacheDirFlag(fs)
	maxBytes := fs.Int64("max-bytes", 0, "size cap for the persistent tier; 0 = unbounded")
	maxAge := fs.Duration("max-age", 0, "evict entries last written longer than this ago; 0 = unbounded")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("cache gc: -dir is required")
	}
	c, err := openCacheDir(*dir)
	if err != nil {
		return err
	}
	res, err := c.GC(sched.CacheGCPolicy{MaxBytes: *maxBytes, MaxAge: *maxAge})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "scanned %d entries (%d bytes)\n", res.Scanned, res.ScannedBytes)
	fmt.Fprintf(w, "evicted %d by age, %d by size (%d bytes)\n", res.EvictedAge, res.EvictedSize, res.EvictedBytes)
	fmt.Fprintf(w, "compacted %d segments\n", res.Compacted)
	fmt.Fprintf(w, "removed %d legacy files\n", res.LegacyRemoved)
	fmt.Fprintf(w, "live: %d entries (%d bytes)\n", res.Live, res.LiveBytes)
	return nil
}

// runCacheVerify implements `schedcli cache verify`.
func runCacheVerify(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cache verify", flag.ContinueOnError)
	dir := cacheDirFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("cache verify: -dir is required")
	}
	c, err := openCacheDir(*dir)
	if err != nil {
		return err
	}
	res, err := c.Verify(func(_ sched.CacheKey, val []byte) error {
		return engine.CheckCachedResult(val)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "checked %d entries\n", res.Checked)
	fmt.Fprintf(w, "removed %d garbage entries (%d bytes)\n", res.Removed, res.RemovedBytes)
	return nil
}

// openCacheDir opens a cache over an existing directory's persistent
// tier only (no memory budget matters here — lifecycle operations
// never touch the memory tier).
func openCacheDir(dir string) (*sched.SweepCache, error) {
	store, err := sched.NewDirStore(dir)
	if err != nil {
		return nil, err
	}
	return sched.NewSweepCache(sched.CacheConfig{Store: store})
}
