//go:build unix

package diskstore

import (
	"fmt"
	"os"
	"syscall"
)

// lockDir takes an exclusive advisory flock on dir/LOCK, refusing to open a
// data directory another live process holds: two daemons appending to one
// WAL would interleave divergent histories and corrupt recovery. The kernel
// releases the lock when the process dies — kill -9 included — so a crash
// never strands a stale lock the way a pidfile would.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(dir+"/LOCK", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("diskstore: open lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("diskstore: data directory %s is locked by another process", dir)
	}
	return f, nil
}

func unlockDir(f *os.File) {
	if f != nil {
		syscall.Flock(int(f.Fd()), syscall.LOCK_UN) //nolint:errcheck
		f.Close()
	}
}

// syncDir fsyncs a directory, so a rename or file creation inside it
// survives power loss, not only a process crash: without it the WAL can
// name a blob whose directory entry never reached disk.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("diskstore: sync directory: %w", err)
	}
	return nil
}
