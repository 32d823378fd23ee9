//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package cache

import (
	"os"
	"syscall"
)

// lockSegment takes the exclusive advisory lock that marks a segment
// as a live writer's, without waiting, and reports whether it did.
// The lock belongs to the open file, so it fails while any other open
// of the segment — in this process or another — holds it, and it ends
// with the file or the process.
func lockSegment(f *os.File) bool {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB) == nil
}

// unlockSegment releases the lock lockSegment took.
func unlockSegment(f *os.File) {
	_ = syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
}
