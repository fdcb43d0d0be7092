package persist

import (
	"os"
	"syscall"
)

// preallocate extends f to size bytes with fallocate(2) mode 0: blocks and
// file size are set now, once, so an append into the range changes no file
// metadata. It reports false, with no error, where the filesystem cannot do
// it (EOPNOTSUPP, ENOSYS): the caller keeps a file that grows per append.
func preallocate(f *os.File, size int64) (bool, error) {
	for {
		switch err := syscall.Fallocate(int(f.Fd()), 0, 0, size); err {
		case nil:
			return true, nil
		case syscall.EINTR:
		case syscall.EOPNOTSUPP, syscall.ENOSYS:
			return false, nil
		default:
			return false, err
		}
	}
}
