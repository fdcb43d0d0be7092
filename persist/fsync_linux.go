package persist

import (
	"os"
	"syscall"
)

// fdatasync makes f's appended data durable: fdatasync(2), which skips the
// inode timestamp flush fsync pays but — per POSIX — still flushes the
// metadata required to retrieve the data. For an append that grows the file
// that is the new size, committed through the filesystem journal on every
// call: the cost the WAL avoids by preallocating its active segment
// (openSegment). Either way a record is durable when its bytes can be read
// back after a crash, and recovery tolerates a torn tail.
func fdatasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err != syscall.EINTR {
			return err
		}
	}
}
