package wire

import (
	"io"
	"net"
)

// Flusher turns a slice of pooled frame buffers into one scatter-gather
// write, reusing its iovec across flushes. Both ends' combining flushes — the
// server connection's and the client connection's, each run by whichever
// goroutine finds nobody flushing — hand their pending frames to a Flusher, so a batch costs one writev however many frames are
// pending; the ownership rule is uniform: Flush consumes the frames,
// recycling every buffer whatever the outcome.
type Flusher struct {
	iov [][]byte
	// bufs is the net.Buffers header WriteTo consumes. WriteTo has a pointer
	// receiver and hands the pointer to the writer's buffersWriter hook, so a
	// header local to Flush escapes — one allocation per flush; as a field it
	// lives in the (long-lived) Flusher.
	bufs net.Buffers
}

// Flush writes every frame in pend to w with a single writev (net.Buffers
// falls back to sequential writes on non-socket writers) and returns the
// buffers to the arena. On error the frames are still recycled; the caller
// owns the connection's fate.
func (f *Flusher) Flush(w io.Writer, pend []*Buf) error {
	f.iov = f.iov[:0]
	for _, p := range pend {
		f.iov = append(f.iov, p.B)
	}
	f.bufs = f.iov
	_, err := f.bufs.WriteTo(w) // consumes f.bufs, nilling the entries it wrote
	for _, p := range pend {
		PutBuf(p)
	}
	return err
}
