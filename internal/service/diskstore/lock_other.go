//go:build !unix

package diskstore

import "os"

// lockDir is a no-op on platforms without flock; single-process use is the
// operator's responsibility there.
func lockDir(string) (*os.File, error) { return nil, nil }

func unlockDir(*os.File) {}

// syncDir is a no-op where a directory handle cannot be fsynced.
func syncDir(string) error { return nil }
