//go:build !linux

package persist

import "os"

// preallocate reports that this platform has no fallocate(2): the segment
// grows with every append, as it did before preallocation existed.
func preallocate(f *os.File, size int64) (bool, error) { return false, nil }
