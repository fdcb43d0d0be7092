package server

import (
	"encoding/binary"
	"sync/atomic"

	"auditreg/internal/telem"
	"auditreg/wire"
)

// defaultShardQueue is the per-executor queue capacity — the admission
// control high watermark. A full queue means the shard is more than a full
// coalescing window behind; shedding there keeps queueing delay bounded
// instead of letting latency grow without limit under overload.
const defaultShardQueue = 1024

// shardReq is one routed request: the frame's identity plus a pooled copy of
// its body (the conn's read buffer is reused for the next frame before the
// executor runs). The executor recycles buf after executing.
type shardReq struct {
	c    *conn
	id   uint64
	verb wire.Verb
	buf  *wire.Buf
	enq  int64 // telem.Now() at enqueue; the executor derives its queue wait
}

// shardExec is one shard executor: a single goroutine owning the slice of
// the store whose object names hash into it. All operations on those objects
// — from every connection — are serialized through queue, so cross-
// connection ops on one shard never contend on the store's locks; distinct
// shards run on distinct executors in parallel.
type shardExec struct {
	id    int // executor index; doubles as the telemetry stripe
	queue chan shardReq
	done  chan struct{} // closed when the executor goroutine exits

	enqueues atomic.Uint64
	sheds    atomic.Uint64
}

// newExecs builds the executor set: shards is already a power of two.
func newExecs(shards, queueCap int) []*shardExec {
	execs := make([]*shardExec, shards)
	for i := range execs {
		execs[i] = &shardExec{
			id:    i,
			queue: make(chan shardReq, queueCap),
			done:  make(chan struct{}),
		}
	}
	return execs
}

// startExecs launches the executor goroutines; Serve calls it once the
// listener is committed.
func (s *Server) startExecs() {
	s.mu.Lock()
	if s.execsUp {
		s.mu.Unlock()
		return
	}
	s.execsUp = true
	s.mu.Unlock()
	for _, e := range s.execs {
		go s.runExec(e)
	}
}

// stopExecs closes the queues and joins the executors. Safe only once every
// routing goroutine is gone — Shutdown calls it after wg.Wait(), when no
// conn reader remains to send.
func (s *Server) stopExecs() {
	s.execStop.Do(func() {
		s.mu.Lock()
		up := s.execsUp
		s.mu.Unlock()
		for _, e := range s.execs {
			close(e.queue)
		}
		if !up {
			return
		}
		for _, e := range s.execs {
			<-e.done
		}
	})
}

// runExec is the executor loop: execute, recycle the request buffer, and
// release the conn's in-flight slot — in that order, so a conn's reader can
// only pass inflight.Wait() once every routed response has been handed to
// its completion or writer stage.
func (s *Server) runExec(e *shardExec) {
	defer close(e.done)
	stripe := uint64(e.id)
	for req := range e.queue {
		// Queue wait and handler execution are the two executor-side stages;
		// both stripe by executor index, so the adds never leave this core's
		// cache line under the intended one-executor-per-core shape.
		t0 := telem.Now()
		s.tel.queueWait.Observe(stripe, t0-req.enq)
		req.c.execute(req.id, req.verb, req.buf.B)
		s.tel.storeOp.Observe(stripe, telem.Now()-t0)
		wire.PutBuf(req.buf)
		req.c.inflight.Done()
	}
}

// peekName returns the object name of a request body without decoding it:
// every name-carrying request (OPEN, WRITE, READ-FETCH, AUDIT, SHARE-WRITE,
// SHARE-FETCH) encodes the name first, as a u16 length prefix and the bytes — the
// wire layout is arranged so the router can hash a name without allocating
// a string or knowing the verb's full schema.
func peekName(body []byte) ([]byte, bool) {
	if len(body) < 2 {
		return nil, false
	}
	n := int(binary.BigEndian.Uint16(body))
	if n == 0 || len(body) < 2+n {
		return nil, false
	}
	return body[2 : 2+n], true
}
