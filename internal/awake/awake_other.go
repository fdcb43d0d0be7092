//go:build !linux

package awake

// Keep starts nothing where SCHED_IDLE is not to be had.
func Keep() (int, func()) { return 0, func() {} }
