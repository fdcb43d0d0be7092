//go:build !race

// Package race reports whether the binary was built with the race detector.
// Allocation-count tests consult it: under -race a sync.Pool discards a
// random quarter of what is put into it, so a path that is allocation-free
// by recycling cannot be pinned at zero there.
package race

// Enabled is true in a -race build.
const Enabled = false
