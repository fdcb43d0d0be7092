package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"auditreg/wire"
)

var errClientClosed = errors.New("client: closed")

// ErrConnLost reports that a pool connection died — server restart, TCP
// reset, write failure — with requests in flight. Every such request fails
// fast with an error wrapping ErrConnLost (test with errors.Is) instead of
// hanging; the pool transparently redials on next use, so the Client itself
// survives.
var ErrConnLost = errors.New("client: connection lost")

// ErrTimeout reports that a round trip outlived the pool's per-request
// timeout (WithRequestTimeout): the peer accepted the connection but never
// answered — hung process, partition holding the connection open, or a flush
// that stalled past the deadline. The connection is killed (every request in
// flight on it fails with a cause wrapping ErrTimeout, test with errors.Is
// through the NodeError wrapper) so a hung node costs one timeout, not a
// wedged caller; the pool redials on next use.
var ErrTimeout = errors.New("client: request timeout")

// ErrNodeMismatch reports that the daemon a connection reached is not the
// cluster node the client asserted with WithNode: the address list and the
// cluster the daemons were booted into disagree. Surfaced by Open (the
// server refuses with wire.CodeNodeMismatch before touching the store), so a
// misrouted connection can never contribute a share to the wrong node's
// history.
var ErrNodeMismatch = errors.New("client: cluster node mismatch")

// NodeError wraps every connection-level failure with the address the
// failing connection was dialed to. In a single-server pool the address is
// redundant; in a cluster fan-out it is the signal — a dispersing client
// (package auditreg/cluster) unwraps it to tell WHICH node went silent and
// count it against f, rather than failing the whole quorum call. Unwrap
// preserves the underlying sentinel, so errors.Is(err, ErrConnLost) keeps
// working through the wrapper.
type NodeError struct {
	Addr string // the address the connection was dialed to
	Err  error
}

func (e *NodeError) Error() string { return fmt.Sprintf("client: node %s: %v", e.Addr, e.Err) }

func (e *NodeError) Unwrap() error { return e.Err }

// completion is what the in-flight table maps a request id to: the code the
// read loop runs when the response arrives. complete is called exactly once
// per registered request — by the read loop with the response (body aliases
// the scanner's buffer and is valid only during the call; err is nil), or,
// when the connection dies first, by whoever closes it, with err a
// *NodeError carrying the cause of death. It runs on the read loop, so it
// must not block: a completion delivers into a channel with room for it.
type completion interface {
	complete(verb wire.Verb, body []byte, err error)
}

// conn is one pooled connection. Its client side of the wire is
// caller-driven: there is no writer goroutine. A sender appends its encoded
// frame to the pending list and, if nobody is flushing, flushes batches
// itself — one writev per batch — until the list is empty; a sender that
// finds a flush in progress leaves its frame to that flusher. An uncontended
// request therefore costs one write syscall on the caller's own goroutine
// and a contended one still coalesces. A background read loop matches
// response frames to the completions registered under their request ids
// (in-flight multiplexing), and the connection remembers which objects it
// has opened, with the server-issued session secret and boot epoch each
// OpenResp carries.
//
// Requests travel in pooled wire.Buf frames: the caller encodes into a
// buffer it got from the arena, the flush recycles it. Responses are decoded
// where they arrive — a hot verb's completion (leg) reads the scanner's
// buffer in place; only the cold verbs' blocking waiter copies the body into
// a pooled buffer. Steady-state traffic allocates nothing per request.
type conn struct {
	nc         net.Conn
	addr       string        // dialed address, for NodeError attribution
	node       uint32        // cluster node id asserted on every OPEN; 0 asserts nothing
	reqTimeout time.Duration // per-request deadline; 0 disables enforcement

	// timedOut marks that a request timer fired and kicked the read loop off
	// the socket via SetReadDeadline; the read loop consults it to attribute
	// its exit to ErrTimeout rather than a generic lost connection. Set
	// strictly before the deadline is moved, so the attribution never races
	// the wakeup it causes.
	timedOut atomic.Bool

	mu       sync.Mutex
	nextID   uint64 // assigned under mu together with the append: frames leave in id order
	inflight map[uint64]completion
	pend     []*wire.Buf // complete request frames awaiting a flush, FIFO
	flushing bool        // some sender is draining pend; the others append and leave
	dead     error
	opened   map[string]wire.OpenResp // objects opened on this conn

	// Owned by whichever sender holds the flushing flag.
	batch []*wire.Buf
	fl    wire.Flusher
}

// resp is a blocking waiter's matched response: the verb and a pooled copy
// of the body, which the receiver recycles after decoding — or err, when the
// connection died before the response arrived.
type resp struct {
	verb wire.Verb
	buf  *wire.Buf
	err  error
}

// waiter is the completion of a blocking round trip: it copies the response
// out of the scanner's buffer and sends it to the parked caller. Pooled, so
// a round trip costs no channel allocation; a pooled waiter is always empty
// (its one send is consumed before it is returned).
type waiter chan resp

var waiters = sync.Pool{New: func() any { return make(waiter, 1) }}

func (w waiter) complete(verb wire.Verb, body []byte, err error) {
	if err != nil {
		w <- resp{err: err}
		return
	}
	rb := wire.GetBuf(len(body))
	rb.B = append(rb.B[:0], body...)
	w <- resp{verb: verb, buf: rb}
}

func dialConn(addr string, timeout, reqTimeout time.Duration, dial Dialer, node uint32) (*conn, error) {
	nc, err := dial(addr, timeout)
	if err != nil {
		return nil, &NodeError{Addr: addr, Err: err}
	}
	cn := &conn{
		nc:         nc,
		addr:       addr,
		node:       node,
		reqTimeout: reqTimeout,
		inflight:   make(map[uint64]completion),
		opened:     make(map[string]wire.OpenResp),
	}
	go cn.readLoop()
	return cn, nil
}

// send registers done under a fresh request id, completes the frame in b —
// encoded with wire.BeginFrame and the message's Append, prefix still
// unpatched — with that id and appends it to the pending list, all in one
// critical section; then, unless another sender is already flushing, it
// flushes until the list is empty. It owns b in every outcome. A non-nil
// error means done was not registered and will never run; after a nil
// return done runs exactly once, possibly before send returns.
//
// The flushing sender writes on its own goroutine, so it waits on the
// transport exactly as long as the transport's send buffer is full — on TCP
// that takes megabytes of unread requests, on an unbuffered pipe it is
// immediate — bounded by the write deadline when a request timeout is
// configured. Every other sender only appends.
func (cn *conn) send(verb wire.Verb, b *wire.Buf, done completion) error {
	cn.mu.Lock()
	if cn.dead != nil {
		err := &NodeError{Addr: cn.addr, Err: cn.dead}
		cn.mu.Unlock()
		wire.PutBuf(b)
		return err
	}
	if err := wire.EndFrame(b.B, 0, cn.nextID+1, verb); err != nil {
		cn.mu.Unlock()
		wire.PutBuf(b)
		return err
	}
	cn.nextID++
	cn.inflight[cn.nextID] = done
	cn.pend = append(cn.pend, b)
	if cn.flushing {
		cn.mu.Unlock()
		return nil
	}
	cn.flushing = true
	for len(cn.pend) > 0 {
		cn.batch, cn.pend = cn.pend, cn.batch[:0]
		cn.mu.Unlock()
		if err := cn.flush(); err != nil {
			cn.close(err) // recycles pend and fails every request in flight, this one included
		}
		cn.mu.Lock()
	}
	cn.flushing = false
	cn.mu.Unlock()
	return nil
}

// flush writes cn.batch with one scatter-gather write and recycles its
// buffers; the error, if any, is the connection's cause of death.
func (cn *conn) flush() error {
	if cn.reqTimeout > 0 {
		// A per-flush write deadline: a peer that stops draining its receive
		// window must not park the flusher (and everything appended behind
		// it) forever.
		cn.nc.SetWriteDeadline(time.Now().Add(cn.reqTimeout))
	}
	err := cn.fl.Flush(cn.nc, cn.batch)
	if err == nil {
		return nil
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: flush stalled past %v: %v", ErrTimeout, cn.reqTimeout, err)
	}
	return fmt.Errorf("%w: write failed: %v", ErrConnLost, err)
}

// readLoop runs each response frame's completion until the connection dies,
// then fails every remaining and future request.
func (cn *conn) readLoop() {
	sc := wire.NewFrameScanner(cn.nc, 32<<10)
	for {
		f, err := sc.Next()
		if err != nil {
			if cn.timedOut.Load() {
				cn.close(fmt.Errorf("%w: no response within %v", ErrTimeout, cn.reqTimeout))
			} else {
				cn.close(fmt.Errorf("%w: %v", ErrConnLost, err))
			}
			return
		}
		cn.mu.Lock()
		done, ok := cn.inflight[f.ID]
		if ok {
			delete(cn.inflight, f.ID)
		}
		cn.mu.Unlock()
		if ok {
			done.complete(f.Verb, f.Body, nil)
		}
	}
}

// arm starts the request timer of one round trip, nil when no request
// timeout is configured. Armed before send so the deadline also covers time
// spent pending behind a stalled flush. Firing marks the timeout (so the
// read loop attributes its exit correctly), then moves the read deadline
// into the past, forcing the blocked read off the socket immediately. Death
// then flows through the read loop's single exit path — close with an
// ErrTimeout cause, every completion run — rather than a second, racing
// teardown. The completion disarms it; a response racing the timer at the
// deadline costs a redial, nothing more.
func (cn *conn) arm() *time.Timer {
	if cn.reqTimeout <= 0 {
		return nil
	}
	return time.AfterFunc(cn.reqTimeout, func() {
		cn.timedOut.Store(true)
		cn.nc.SetReadDeadline(time.Unix(1, 0))
	})
}

// disarm stops a timer arm returned.
func disarm(t *time.Timer) {
	if t != nil {
		t.Stop()
	}
}

// isDead reports whether the connection has failed.
func (cn *conn) isDead() bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.dead != nil
}

// close marks the connection dead with cause, recycles the frames no flush
// will take any more, and completes every request in flight — each exactly
// once: an entry leaves the table under mu either here or in the read loop —
// with a NodeError naming this connection's dialed address, the per-node
// attribution every dead-connection failure surfaces with.
func (cn *conn) close(cause error) {
	cn.mu.Lock()
	if cn.dead != nil {
		cn.mu.Unlock()
		return
	}
	cn.dead = cause
	orphans := cn.inflight
	cn.inflight = nil
	unsent := cn.pend
	cn.pend = nil
	cn.mu.Unlock()
	cn.nc.Close()
	for _, b := range unsent {
		wire.PutBuf(b)
	}
	err := &NodeError{Addr: cn.addr, Err: cause}
	for _, done := range orphans {
		done.complete(0, nil, err)
	}
}

// roundTrip sends body under verb and blocks for the response: the path of
// the cold verbs (OPEN, AUDIT, STATS). The returned resp's buffer is owned by
// the caller, who recycles it with wire.PutBuf after decoding.
func (cn *conn) roundTrip(verb wire.Verb, body []byte) (resp, error) {
	b := wire.GetBuf(wire.FramePrefix + len(body))
	b.B = append(wire.BeginFrame(b.B[:0]), body...)
	w := waiters.Get().(waiter)
	defer waiters.Put(w)
	t := cn.arm()
	defer disarm(t)
	if err := cn.send(verb, b, w); err != nil {
		return resp{}, err
	}
	r := <-w
	return r, r.err
}

// isOpen reports whether the connection is alive and has the named object
// open as wkind, returning the server's OpenResp for it — which carries the
// connection's session secret and the server's boot epoch, so a request
// learns everything it needs about its connection from this one locked
// check.
func (cn *conn) isOpen(name string, wkind uint8) (wire.OpenResp, bool) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	prev, ok := cn.opened[name]
	return prev, ok && prev.Kind == wkind && cn.dead == nil
}

// open ensures the named object is open on this connection and returns the
// server's OpenResp. Subsequent opens of the same name on this connection
// are answered locally.
//
// The OpenResp pins the server boot epoch this connection observed. A TCP
// connection can only ever talk to one server process, so the value is
// stable for the connection's lifetime — which is what makes it a safe
// staleness signal for read caches (a process-wide "latest epoch" could be
// overwritten by a delayed callback from a pre-restart connection).
func (cn *conn) open(name string, wkind uint8, capacity uint32) (wire.OpenResp, error) {
	if prev, ok := cn.isOpen(name, wkind); ok {
		return prev, nil
	}
	req := wire.OpenReq{Name: name, Kind: wkind, Capacity: capacity, Node: cn.node}
	r, err := cn.roundTrip(wire.VerbOpen, req.Append(nil))
	if err != nil {
		return wire.OpenResp{}, err
	}
	var openResp wire.OpenResp
	err = decodeResp(r, wire.VerbOpen, &openResp)
	wire.PutBuf(r.buf)
	if err != nil {
		return wire.OpenResp{}, err
	}
	if cn.node != 0 && openResp.Node != cn.node {
		// Belt and braces: the server refuses asserted mismatches itself
		// (CodeNodeMismatch), so this only fires against a daemon that echoed
		// an id it did not check.
		return wire.OpenResp{}, &NodeError{Addr: cn.addr, Err: fmt.Errorf(
			"open %q: daemon is node %d, want %d: %w", name, openResp.Node, cn.node, ErrNodeMismatch)}
	}
	cn.mu.Lock()
	cn.opened[name] = openResp
	cn.mu.Unlock()
	return openResp, nil
}
