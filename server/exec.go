package server

import (
	"encoding/binary"
	"sync/atomic"

	"auditreg/internal/telem"
	"auditreg/wire"
)

// defaultShardQueue is the per-shard queue capacity — the admission control
// high watermark. A full queue means that many requests of other connections
// are waiting behind the one draining the shard; shedding there keeps
// queueing delay bounded instead of letting latency grow without limit under
// overload.
const defaultShardQueue = 1024

// drainBatch bounds how many requests a drainer executes before it lets go
// of the shard to flush the responses it produced: under a standing queue
// nobody's answer waits for the queue to run dry.
const drainBatch = 64

// shardReq is one routed request: the frame's identity plus a pooled copy of
// its body (the conn's read buffer is reused for the next frame before the
// request may run). Whoever executes it recycles buf.
type shardReq struct {
	c    *conn
	id   uint64
	verb wire.Verb
	buf  *wire.Buf
	enq  int64 // telem.Now() at enqueue; the drainer derives the queue wait
}

// shardQueue is one execution shard: the bounded queue of the requests whose
// object names hash into it, and the flag that says some connection's reader
// is draining it. There is no executor goroutine. A reader enqueues its
// request and, finding the shard idle, takes the flag and executes what is
// queued — its own request and whatever other connections added meanwhile —
// in queue order; a reader that finds the shard busy leaves its request to
// the drainer and goes back to its socket. Holding the flag is what
// serializes the shard: operations of one shard never run concurrently, and
// distinct shards run on distinct readers in parallel.
type shardQueue struct {
	id    int // shard index; doubles as the telemetry stripe
	queue chan shardReq
	busy  atomic.Bool
	// popped counts the requests taken off queue; owned by the holder of
	// busy. A drainer compares it with enqueues after letting go: a request
	// enqueued by a reader that found the shard busy is never stranded.
	popped uint64

	enqueues atomic.Uint64
	sheds    atomic.Uint64
}

// newShards builds the shard set: shards is already a power of two.
func newShards(shards, queueCap int) []*shardQueue {
	qs := make([]*shardQueue, shards)
	for i := range qs {
		qs[i] = &shardQueue{id: i, queue: make(chan shardReq, queueCap)}
	}
	return qs
}

// take pops the oldest queued request; the caller holds busy.
func (e *shardQueue) take() (shardReq, bool) {
	select {
	case req := <-e.queue:
		e.popped++
		return req, true
	default:
		return shardReq{}, false
	}
}

// drain runs on a connection's reader right after it enqueued on e: if the
// shard is idle, c takes it and executes the queue in order until it is
// empty — at most drainBatch requests per hold. Responses to other
// connections' requests are only appended to their pending lists while the
// shard is held; their sockets are written after the release (invariant:
// shard-never-held-across-a-socket-write), so a peer that stopped reading
// cannot stall a shard. After every release the drainer re-checks the
// enqueue count against what it popped: a reader whose enqueue raced the
// release saw busy set and left, and this check is what picks its request
// up (invariant: no-request-stranded-after-release).
func (c *conn) drain(e *shardQueue) {
	s := c.srv
	stripe := uint64(e.id)
	for e.busy.CompareAndSwap(false, true) {
		for n := 0; n < drainBatch; n++ {
			req, ok := e.take()
			if !ok {
				break
			}
			// Queue wait and handler execution are the two shard-side
			// stages; both stripe by shard index.
			t0 := telem.Now()
			s.tel.queueWait.Observe(stripe, t0-req.enq)
			req.c.execute(req.id, req.verb, req.buf.B)
			s.tel.storeOp.Observe(stripe, telem.Now()-t0)
			wire.PutBuf(req.buf)
			if req.c == c {
				c.inflight.Done()
			} else {
				c.foreign = append(c.foreign, req.c)
			}
		}
		popped := e.popped
		e.busy.Store(false)
		// The in-flight slot of another connection's request is released
		// only after its response was flushed, so that connection's serve
		// cannot close the socket under this write.
		for i, fc := range c.foreign {
			fc.flush()
			fc.inflight.Done()
			c.foreign[i] = nil
		}
		c.foreign = c.foreign[:0]
		if e.enqueues.Load() <= popped {
			// Nothing is waiting. (Less than: a reader counts its enqueue
			// after the send, so the request may already be popped — that
			// reader's own drain is still to come.)
			return
		}
		// More arrived and this drain goes on: the reader's own batch must
		// not wait for a queue that may never run dry.
		c.flush()
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
