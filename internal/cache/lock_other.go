//go:build !(darwin || dragonfly || freebsd || linux || netbsd || openbsd)

package cache

import "os"

// Without flock a store cannot tell a live writer's segment from a
// dead one's, so it never takes a segment's lock and compaction never
// reclaims one.
func lockSegment(*os.File) bool { return false }

func unlockSegment(*os.File) {}
