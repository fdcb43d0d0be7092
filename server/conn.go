package server

import (
	"crypto/rand"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"auditreg/internal/shard"
	"auditreg/internal/telem"
	"auditreg/store"
	"auditreg/wire"
)

// connIOBuf sizes the per-connection read buffer; connQueue bounds the
// responses awaiting a durability verdict (whoever executes blocks when the
// completion stage falls this far behind — backpressure, not unbounded
// buffering); connFlushBatch bounds how many request frames the reader
// answers before it flushes, however many more its buffer already holds.
const (
	connIOBuf      = 32 << 10
	connQueue      = 256
	connFlushBatch = 64
)

// conn is one accepted connection: a reader goroutine that decodes request
// frames and runs them to completion — it enqueues each on the shard its
// object name hashes to and, finding that shard idle, executes what is
// queued there itself (see shardQueue) — a completion goroutine that holds
// back the responses of journaled mutations until their durability verdict,
// and the connection's session secret (the seed of every ValueMask pad
// applied on it). There is no writer goroutine: finished response frames are
// appended to pend and written by a combining flush, the same shape as the
// client's (client/conn.go).
//
// The request path is allocation-free at steady state: request bodies are
// copied into pooled frame buffers for the queue (hot verbs decode in place
// via DecodeView — their name strings alias that buffer and die with the
// execute), responses are encoded into pooled frame buffers that the flush
// recycles right after the writev. See DESIGN.md, "Wire hot path", for the
// ownership rules.
type conn struct {
	srv     *Server
	nc      net.Conn
	session [wire.SessionLen]byte
	tslot   uint64           // telemetry stripe slot for conn-side histograms
	donec   chan pendingResp // execute → completion: responses awaiting a durability verdict
	cdone   chan struct{}    // closed by completionLoop when drained

	// inflight counts requests routed to shards and not yet answered: a
	// request the reader executed itself leaves when it has executed, one
	// another connection's drainer executed leaves when that drainer has
	// flushed its response. The reader waits for it to drain before closing
	// donec, so every execute-side send lands in a live channel and nobody
	// is writing to the socket when serve closes it.
	inflight sync.WaitGroup

	// foreign lists the other connections whose requests this reader's
	// current drain executed; reader-owned.
	foreign []*conn

	wmu      sync.Mutex
	pend     []*wire.Buf // finished response frames awaiting a flush
	flushing bool        // somebody is writing; appenders leave their frames to it

	// Owned by whoever holds the flushing flag.
	batch []*wire.Buf
	fl    wire.Flusher
}

// pendingResp is one encoded response whose request's durability commit is
// still outstanding: the completion goroutine collects the verdict and only
// then releases the frame — so a shard is never held across an fsync, and
// every mutation in flight on the connection rides its stripe's group
// commit.
type pendingResp struct {
	id     uint64
	buf    *wire.Buf
	commit store.Commit
	enq    int64 // telem.Now() at hand-off to the completion stage
}

func newConn(s *Server, nc net.Conn) (*conn, error) {
	c := &conn{
		srv:   s,
		nc:    nc,
		tslot: s.connSeq.Add(1),
		donec: make(chan pendingResp, connQueue),
		cdone: make(chan struct{}),
	}
	if _, err := rand.Read(c.session[:]); err != nil {
		return nil, err
	}
	return c, nil
}

// beginDrain kicks the reader off its blocking socket read; the frame
// scanner will yield the complete frames already buffered, then surface the
// deadline error, and serve flushes and closes.
func (c *conn) beginDrain() {
	c.nc.SetReadDeadline(time.Now())
}

// serve runs the connection to completion: it returns when the peer closed,
// a protocol error occurred, or a drain finished, with all pending responses
// flushed. The drain guarantee rides on the scanner: Next always drains
// buffered complete frames before surfacing a socket error, so every request
// that had fully arrived when the drain began is still executed.
//
// The reader corks its responses while its scanner holds another complete
// request — k requests that arrived in one segment leave in one writev — and
// flushes when the next Next would block, or every connFlushBatch frames.
func (c *conn) serve() {
	go c.completionLoop()
	sc := wire.NewFrameScanner(c.nc, connIOBuf)
	for batched := 0; ; {
		f, err := sc.Next()
		if err != nil {
			break
		}
		c.route(f, telem.Now())
		if batched++; batched < connFlushBatch && sc.Buffered() {
			continue
		}
		c.flush()
		batched = 0
	}
	c.flush() // what a batch cut short by a malformed frame left corked
	// Every routed request must have executed and — where another reader ran
	// it — been flushed before donec closes and the socket goes away; see
	// inflight.
	c.inflight.Wait()
	close(c.donec)
	<-c.cdone // every pending durability verdict collected and flushed
	c.nc.Close()
}

// completionLoop collects durability verdicts in arrival order and releases
// the finished responses, flushing each as its verdict arrives: the next
// verdict may be a whole fsync away. A failed commit turns the
// already-encoded success response back into an error frame: the mutation
// took effect in memory, but its durability was never acknowledged.
// Non-durable responses bypass this stage entirely (execute appends them
// straight to pend), so a silent read is never queued behind an fsync.
func (c *conn) completionLoop() {
	defer close(c.cdone)
	for pr := range c.donec {
		t0 := telem.Now()
		err := pr.commit.Wait()
		c.srv.tel.walCommit.Observe(c.tslot, telem.Now()-t0)
		if err != nil {
			b, verb := storeErr(wire.BeginFrame(pr.buf.B[:0]), err)
			if e := wire.EndFrame(b, 0, pr.id, verb); e != nil {
				b = wire.BeginFrame(pr.buf.B[:0])
				b, verb = errBody(b, wire.CodeInternal, "durability verdict lost")
				wire.EndFrame(b, 0, pr.id, verb)
			}
			pr.buf.B = b
			c.srv.errs.Add(1)
		}
		c.emit(pr.buf)
		c.flush()
		// Total completion-stage residence: queue dwell + durability wait +
		// emit. wal-commit-wait above isolates the durability share.
		c.srv.tel.completion.Observe(c.tslot, telem.Now()-pr.enq)
	}
}

// emit taps one finished response frame and appends it to the pending list.
// It never writes: the caller may hold a shard. The frame leaves with the
// next flush — the reader's at the end of its batch, or the emitter's own
// (completion stage, another connection's drainer after its release).
func (c *conn) emit(out *wire.Buf) {
	c.srv.framesOut.Add(1)
	if c.srv.cfg.FrameTap != nil {
		// The tap observes the pooled frame in place; taps copy what they
		// keep (test instrumentation — see Config.FrameTap).
		c.srv.cfg.FrameTap(true, out.B)
	}
	c.wmu.Lock()
	c.pend = append(c.pend, out)
	c.wmu.Unlock()
}

// flush writes the pending response frames — one scatter-gather writev per
// batch, buffers recycled whatever the outcome — until none are left, unless
// a flush is already in progress: that one re-checks pend under wmu before
// it lets go of the flag, so it takes the frames appended behind it. On a
// broken socket the writes fail fast and the frames are recycled all the
// same; the reader learns of the failure from its own next read.
func (c *conn) flush() {
	c.wmu.Lock()
	if c.flushing {
		c.wmu.Unlock()
		return
	}
	c.flushing = true
	for len(c.pend) > 0 {
		c.batch, c.pend = c.pend, c.batch[:0]
		c.wmu.Unlock()
		t0 := telem.Now()
		c.fl.Flush(c.nc, c.batch)
		c.srv.tel.connFlush.Observe(c.tslot, telem.Now()-t0)
		c.srv.connFlushes.Add(1)
		c.srv.connFlushFrames.Add(uint64(len(c.batch)))
		c.wmu.Lock()
	}
	c.flushing = false
	c.wmu.Unlock()
}

// route enqueues one request frame on the shard its object name hashes to —
// the same FNV-1a hash the store's shard map and the WAL's stripe map use,
// so one object means one shard means one WAL stripe — and drains that shard
// if it is idle. The frame body is a view into the connection's read buffer,
// reused for the next frame, and the request may wait behind another
// connection's drain, so the queue gets a pooled copy. When the queue is at
// its high watermark the request is shed with CodeBusy instead of queued:
// the wait behind other connections stays bounded and the client retries
// with backoff. (A connection's own pipeline cannot fill the queue: its
// reader executes before it reads on, so its socket is its back-pressure.)
// Requests that carry no object name (STATS, unknown verbs, bodies too
// short to hold a name) execute inline on the reader — they touch no
// per-object state, so they need no serialization.
//
// t0 is the clock at the frame's arrival. conn-decode covers the
// reader-side work per frame — peek, hash, pooled body copy, enqueue (or
// the inline execute of no-name verbs) — and stops before the drain:
// neither the blocking socket read before it nor the store op after it.
func (c *conn) route(f wire.Frame, t0 int64) {
	s := c.srv
	s.framesIn.Add(1)
	if s.cfg.FrameTap != nil {
		s.cfg.FrameTap(false, wire.AppendFrame(nil, f.ID, f.Verb, f.Body))
	}
	switch f.Verb {
	case wire.VerbOpen, wire.VerbWrite, wire.VerbReadFetch, wire.VerbAudit,
		wire.VerbShareWrite, wire.VerbShareFetch:
		name, ok := peekName(f.Body)
		if !ok {
			break // malformed: the handler's decoder produces the error
		}
		e := s.shards[shard.HashBytes(name)&s.shardMask]
		in := wire.GetBuf(len(f.Body))
		in.B = append(in.B[:0], f.Body...)
		c.inflight.Add(1)
		enq := telem.Now()
		select {
		case e.queue <- shardReq{c: c, id: f.ID, verb: f.Verb, buf: in, enq: enq}:
			e.enqueues.Add(1)
		default:
			c.inflight.Done()
			wire.PutBuf(in)
			e.sheds.Add(1)
			c.shed(f.ID)
		}
		s.tel.connDecode.Observe(c.tslot, enq-t0)
		c.drain(e)
		return
	}
	c.execute(f.ID, f.Verb, f.Body)
	s.tel.connDecode.Observe(c.tslot, telem.Now()-t0)
}

// shed answers a request the admission control refused: a CodeBusy error
// frame, emitted straight from the reader. The client maps it to
// wire.ErrBusy and retries with jittered backoff.
func (c *conn) shed(id uint64) {
	out := wire.GetBuf(64)
	b, verb := errBody(wire.BeginFrame(out.B[:0]), wire.CodeBusy, "shard queue full")
	if err := wire.EndFrame(b, 0, id, verb); err != nil {
		panic(fmt.Sprintf("server: busy frame does not fit a frame: %v", err))
	}
	out.B = b
	c.srv.errs.Add(1)
	c.emit(out)
}

// execute runs one request and emits its response; it runs on whichever
// reader is draining the shard the request's object hashes to (inline on
// the connection's own reader for the few verbs without a name). The body is
// owned by the caller; every handler is done with it when execute returns.
// Same-shard mutations execute in queue order, but their durability wait —
// when the WAL has one — is handed to the conn's completion goroutine, so
// the drainer moves on immediately and the stripe's group commit absorbs
// everything in flight on the shard.
func (c *conn) execute(id uint64, verb wire.Verb, body []byte) {
	s := c.srv
	// Size the response buffer by verb so big cold-path responses draw from
	// the arena class they will be recycled into, instead of growing a
	// small-class buffer through reallocations.
	hint := 256
	if verb == wire.VerbAudit || verb == wire.VerbStats {
		hint = 4 << 10
	}
	out := wire.GetBuf(hint)
	b := wire.BeginFrame(out.B[:0])
	var rverb wire.Verb
	var commit store.Commit
	switch verb {
	case wire.VerbOpen:
		b, rverb = c.handleOpen(body, b)
	case wire.VerbWrite:
		b, rverb, commit = c.handleWrite(body, b)
	case wire.VerbReadFetch, wire.VerbShareFetch:
		b, rverb, commit = c.handleFetch(verb, body, b)
	case wire.VerbAudit:
		b, rverb = c.handleAudit(body, b)
	case wire.VerbStats:
		b, rverb = c.handleStats(body, b)
	case wire.VerbShareWrite:
		b, rverb, commit = c.handleShareWrite(body, b)
	default:
		b, rverb = errBody(b, wire.CodeBadRequest, fmt.Sprintf("unknown verb %d", uint8(verb)))
	}
	if err := wire.EndFrame(b, 0, id, rverb); err != nil {
		// The response outgrew the protocol (handlers guard against this;
		// belt and braces): replace it with a bounded error frame.
		b = wire.BeginFrame(b[:0])
		b, rverb = errBody(b, wire.CodeTooLarge, err.Error())
		if err := wire.EndFrame(b, 0, id, rverb); err != nil {
			panic(fmt.Sprintf("server: error frame does not fit a frame: %v", err))
		}
	}
	if rverb == wire.VerbErr {
		s.errs.Add(1)
	}
	out.B = b
	if commit.Pending() {
		c.donec <- pendingResp{id: id, buf: out, commit: commit, enq: telem.Now()}
		return
	}
	c.emit(out)
}

// errBody appends an ErrResp body onto dst, truncating the message to what
// the protocol allows clients to accept.
func errBody(dst []byte, code wire.ErrCode, msg string) ([]byte, wire.Verb) {
	if len(msg) > wire.MaxErrMsg {
		msg = msg[:wire.MaxErrMsg]
	}
	e := wire.ErrResp{Code: code, Msg: msg}
	return e.Append(dst), wire.VerbErr
}

// storeErr appends an ErrResp body for a store error onto dst.
func storeErr(dst []byte, err error) ([]byte, wire.Verb) {
	return errBody(dst, errCode(err), err.Error())
}

// noCommit is a mutation handler's answer with nothing to make durable.
func noCommit(b []byte, v wire.Verb) ([]byte, wire.Verb, store.Commit) {
	return b, v, store.Commit{}
}

func (c *conn) handleOpen(body, dst []byte) ([]byte, wire.Verb) {
	// Open retains the name (the store registers the object under it), so it
	// uses the copying decoder, not a view.
	var req wire.OpenReq
	if err := req.Decode(body); err != nil {
		return errBody(dst, wire.CodeBadRequest, err.Error())
	}
	kind, ok := kindFromWire(req.Kind)
	if !ok {
		return errBody(dst, wire.CodeUnsupported, fmt.Sprintf("kind %d is not remotable", req.Kind))
	}
	// Check the node assertion before touching the store: a misrouted open
	// must not create the object on the wrong daemon.
	if req.Node != 0 && req.Node != c.srv.cfg.NodeID {
		return errBody(dst, wire.CodeNodeMismatch, fmt.Sprintf("open %q: client expects node %d, this daemon is node %d", req.Name, req.Node, c.srv.cfg.NodeID))
	}
	var openOpts []store.OpenOption
	if req.Capacity != 0 {
		openOpts = append(openOpts, store.WithObjectCapacity(int(req.Capacity)))
	}
	obj, err := c.srv.st.Open(req.Name, kind, openOpts...)
	if err != nil {
		return storeErr(dst, err)
	}
	c.srv.opens.Add(1)
	wk, _ := kindToWire(obj.Kind())
	resp := wire.OpenResp{Kind: wk, Readers: uint8(obj.Readers()), Epoch: c.srv.epoch, Session: c.session, Node: c.srv.cfg.NodeID}
	return resp.Append(dst), wire.VerbOpen
}

func (c *conn) handleWrite(body, dst []byte) ([]byte, wire.Verb, store.Commit) {
	var req wire.WriteReq
	if err := req.DecodeView(body); err != nil {
		return noCommit(errBody(dst, wire.CodeBadRequest, err.Error()))
	}
	obj, ok := c.srv.st.Lookup(req.Name)
	if !ok {
		return noCommit(errBody(dst, wire.CodeNotFound, fmt.Sprintf("write %q: object not found", req.Name)))
	}
	commit, err := obj.WriteAsync(req.Value)
	if err != nil {
		return noCommit(storeErr(dst, err))
	}
	c.srv.writes.Add(1)
	return dst, wire.VerbWrite, commit
}

// handleFetch answers READ-FETCH and SHARE-FETCH, which share their bodies:
// the silent-read check and at most one fetch&xor through the server's
// per-(object, reader) handle, the helping announce after a fetch, and the
// value masked under this connection's session pad. A share object is a
// max register read exactly as a register is; the share verb only insists
// the object is one, counts apart, and is where CorruptShares lies.
func (c *conn) handleFetch(verb wire.Verb, body, dst []byte) ([]byte, wire.Verb, store.Commit) {
	s := c.srv
	share := verb == wire.VerbShareFetch
	op, fetches, silent := "read-fetch", &s.readsFetched, &s.readsSilent
	if share {
		op, fetches, silent = "share-fetch", &s.shareFetch, &s.shareSilent
	}
	var req wire.ReadFetchReq
	if err := req.DecodeView(body); err != nil {
		return noCommit(errBody(dst, wire.CodeBadRequest, err.Error()))
	}
	if int(req.Reader) >= s.st.Readers() {
		return noCommit(errBody(dst, wire.CodeBadRequest, fmt.Sprintf("%s %q: reader %d out of range [0, %d)", op, req.Name, req.Reader, s.st.Readers())))
	}
	obj, ok := s.st.Lookup(req.Name)
	if !ok {
		return noCommit(errBody(dst, wire.CodeNotFound, fmt.Sprintf("%s %q: object not found", op, req.Name)))
	}
	if share && obj.Kind() != store.MaxRegister {
		return noCommit(errBody(dst, wire.CodeShareMode, fmt.Sprintf("%s %q: share objects are max registers, not %v", op, req.Name, obj.Kind())))
	}
	// The fetch record is appended before ReadFetchAsync returns; the
	// completion stage withholds the response until the record is stable,
	// so an acknowledged effective read is still always durable.
	val, seq, fetched, commit, err := obj.ReadFetchAsync(int(req.Reader))
	if err != nil {
		return noCommit(storeErr(dst, err))
	}
	if fetched {
		fetches.Add(1)
		c.helpAnnounce(obj, int(req.Reader), seq)
	} else {
		silent.Add(1)
	}
	if s.cfg.LeakyPerObjectReads {
		s.recordLeakyRead(req.Name)
	}
	resp := wire.ReadFetchResp{Fetched: fetched, Seq: seq}
	if seq != req.PrevSeq {
		// The client's cache is stale: ship the value, masked under this
		// connection's session pad; the client unmasks locally.
		resp.Value = val ^ wire.ValueMask(c.session, req.Name, req.Reader, seq)
		if share && s.cfg.CorruptShares {
			// Byzantine test hook: flip the low bit of the packed value on
			// the wire. The low bits are the share (the wid rides the high
			// bits), so the corrupted share stays a plausible field element
			// at the advertised wid — the hardest wire corruption for a
			// client to detect short of verified reconstruction. The journal
			// keeps the honest value; only the serving path lies.
			resp.Value ^= 1
			s.shareCorrupt.Add(1)
		}
	}
	return resp.Append(dst), verb, commit
}

// helpAnnounce is the announce half of an effective read (Algorithm 1 line
// 5), performed by the server right after the fetch half: the helping CAS
// that completes the seq-th write, with the same guard and the same
// JournalAnnounce record as store.Object.Read. Every op on an object runs
// under its shard's busy flag, one at a time, so no write is half-finished
// when this runs — which is why it needs no request of its own. Pure
// helping: a failure is not surfaced (the read already took effect and is
// journaled), only not counted.
func (c *conn) helpAnnounce(obj *store.Object[uint64], reader int, seq uint64) {
	if err := obj.Announce(reader, seq); err == nil {
		c.srv.announces.Add(1)
	}
}

// handleAudit answers with the rows of the sequence range the request's
// cursor opens (see wire.AuditResp), every one under its own fresh pad before
// the response is encoded: no decrypted reader set is ever placed in a frame,
// and only auditor clients — key holders — can unmask.
func (c *conn) handleAudit(body, dst []byte) ([]byte, wire.Verb) {
	// Cold path; the audit pool may retain the name in its cursors, so use
	// the copying decoder.
	var req wire.AuditReq
	if err := req.Decode(body); err != nil {
		return errBody(dst, wire.CodeBadRequest, err.Error())
	}
	var resp wire.AuditResp
	if _, err := rand.Read(resp.Nonce[:]); err != nil {
		return errBody(dst, wire.CodeInternal, err.Error())
	}
	kind, next, more, err := c.srv.pool.Rows(req.Name, req.Fresh, req.Since, wire.MaxAuditRows, func(val, readers uint64) {
		resp.Rows = append(resp.Rows, wire.AuditRow{Value: val, Readers: readers})
	})
	if err != nil {
		return storeErr(dst, err)
	}
	wire.MaskAuditRows(c.srv.cfg.Key, resp.Nonce, resp.Rows)
	resp.Kind, _ = kindToWire(kind) // the pool emits rows for remotable kinds only
	resp.Next, resp.More = next, more
	c.srv.audits.Add(1)
	return resp.Append(dst), wire.VerbAudit
}

func (c *conn) handleStats(body, dst []byte) ([]byte, wire.Verb) {
	var req wire.StatsReq
	if err := req.Decode(body); err != nil {
		return errBody(dst, wire.CodeBadRequest, err.Error())
	}
	snap := c.srv.snapshotCounters()
	resp := wire.StatsResp{
		GoVersion:  runtime.Version(),
		GoMaxProcs: uint32(runtime.GOMAXPROCS(0)),
		UptimeMs:   snap.v[rowUptime],
		StatsEpoch: snap.v[rowEpoch],
		Pairs:      c.srv.statPairs(snap),
	}
	return resp.Append(dst), wire.VerbStats
}

// handleShareWrite installs one node's slice of a dispersed write (see the
// wire package's SHARE-WRITE documentation): a writeMax of the packed
// (wid, masked share) value, journaled through the WAL like any write. Wid 0
// is the wid-sync probe — a pure query of the resident write id through the
// store's unaudited Peek, no write, no journal record.
func (c *conn) handleShareWrite(body, dst []byte) ([]byte, wire.Verb, store.Commit) {
	var req wire.ShareWriteReq
	if err := req.DecodeView(body); err != nil {
		return noCommit(errBody(dst, wire.CodeBadRequest, err.Error()))
	}
	if req.ShareLen < 1 || req.ShareLen > wire.MaxShareLen {
		return noCommit(errBody(dst, wire.CodeBadRequest, fmt.Sprintf("share-write %q: share-len %d out of range [1, %d]", req.Name, req.ShareLen, wire.MaxShareLen)))
	}
	shareBits := 8 * uint(req.ShareLen)
	if req.Share>>shareBits != 0 {
		return noCommit(errBody(dst, wire.CodeBadRequest, fmt.Sprintf("share-write %q: share wider than %d bytes", req.Name, req.ShareLen)))
	}
	if req.Wid>>(64-shareBits) != 0 {
		return noCommit(errBody(dst, wire.CodeBadRequest, fmt.Sprintf("share-write %q: wid %d overflows the packing", req.Name, req.Wid)))
	}
	obj, ok := c.srv.st.Lookup(req.Name)
	if !ok {
		return noCommit(errBody(dst, wire.CodeNotFound, fmt.Sprintf("share-write %q: object not found", req.Name)))
	}
	if obj.Kind() != store.MaxRegister {
		return noCommit(errBody(dst, wire.CodeShareMode, fmt.Sprintf("share-write %q: share objects are max registers, not %v", req.Name, obj.Kind())))
	}
	if prev, ok := c.srv.pinShareLen(req.Name, req.ShareLen); !ok {
		return noCommit(errBody(dst, wire.CodeShareMode, fmt.Sprintf("share-write %q: share-len %d conflicts with the object's pinned %d", req.Name, req.ShareLen, prev)))
	}
	var commit store.Commit
	if req.Wid == 0 {
		c.srv.shareProbes.Add(1)
	} else {
		var err error
		commit, err = obj.WriteAsync(req.Wid<<shareBits | req.Share)
		if err != nil {
			return noCommit(storeErr(dst, err))
		}
		c.srv.shareWrites.Add(1)
	}
	cur, err := obj.Peek()
	if err != nil {
		return noCommit(storeErr(dst, err))
	}
	resp := wire.ShareWriteResp{Wid: cur >> shareBits}
	return resp.Append(dst), wire.VerbShareWrite, commit
}
