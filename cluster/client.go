package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"auditreg/client"
	"auditreg/internal/ida"
	"auditreg/store"
)

// Client is a dispersing client over a cluster membership: one pooled
// auditreg/client per node, fanned out per operation, quorum-counted per
// the package rules. Construct with Dial. Safe for concurrent use; the
// writer role of any one object is serialized internally (single-writer
// register).
type Client struct {
	m        Membership
	cod      *ida.Coder
	shareLen int

	clients []*client.Client // position i ↔ m.Nodes[i]

	suspects *suspectSet // Byzantine quarantine state (cluster/suspect.go)
	ctr      counters    // detection counters, snapshot via Counters()

	// The hedge clock: one goroutine ticks every hedgeDelay, and tick holds
	// the channel it will close at the tick after next, so a read round that
	// loads it when it starts sees it close one to two hedgeDelays later. A
	// timer per round would go on and off the runtime's timer heap 20,000
	// times a second to fire once in a blue moon (5 % of the op's CPU on the
	// ladder); this is one atomic load a round.
	tick       atomic.Pointer[chan struct{}]
	stop, done chan struct{} // closed by Close, by the hedge clock on its way out

	mu      sync.Mutex
	objects map[string]*Object
	closed  bool
}

// Option configures a cluster Dial.
type Option func(*dialConfig)

type dialConfig struct {
	perNode func(Node) []client.Option
}

// WithClientOptions supplies extra per-node options for the underlying
// auditreg/client pools — a netsim fabric's Dialer, a pool size, a dial
// timeout. Called once per node; the returned options are appended after
// the cluster's own (node assertion, audit key).
func WithClientOptions(f func(Node) []client.Option) Option {
	return func(c *dialConfig) { c.perNode = f }
}

// Dial validates the membership and connects one client pool per node. A
// node that cannot be dialed does not fail the call as long as at least
// quorum (n−f) pools connect: the dead node's pool is left nil and every
// operation counts it against f. Each pool asserts its node's id on OPEN
// (client.WithNode) and carries the node's audit key when the membership
// has one.
func Dial(m Membership, opts ...Option) (*Client, error) {
	cod, err := m.coder()
	if err != nil {
		return nil, err
	}
	var cfg dialConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	c := &Client{
		m:        m,
		cod:      cod,
		shareLen: m.ShareLen(),
		clients:  make([]*client.Client, m.N()),
		suspects: newSuspectSet(m.N()),
		objects:  make(map[string]*Object),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	tick := make(chan struct{})
	c.tick.Store(&tick)
	go c.hedgeClock()
	alive := 0
	var firstErr error
	for i, nd := range m.Nodes {
		copts := []client.Option{client.WithNode(nd.ID)}
		var zero [32]byte
		if nd.Key != zero {
			copts = append(copts, client.WithKey(nd.Key))
		}
		if cfg.perNode != nil {
			copts = append(copts, cfg.perNode(nd)...)
		}
		cl, err := client.Dial(nd.Addr, copts...)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		c.clients[i] = cl
		alive++
	}
	if alive < m.Quorum() {
		c.Close()
		return nil, fmt.Errorf("cluster: only %d of %d nodes dialable, need %d: %w", alive, m.N(), m.Quorum(), firstErr)
	}
	return c, nil
}

// Membership returns the cluster configuration the client was dialed with.
func (c *Client) Membership() Membership { return c.m }

// Close tears down every node pool.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	<-c.done
	for _, cl := range c.clients {
		if cl != nil {
			cl.Close()
		}
	}
	return nil
}

// hedgeClock ticks until Close.
func (c *Client) hedgeClock() {
	defer close(c.done)
	t := time.NewTicker(hedgeDelay)
	defer t.Stop()
	near := make(chan struct{}) // closes at the next tick; the one in c.tick a tick later
	for {
		select {
		case <-t.C:
			close(near)
			far := make(chan struct{})
			near = *c.tick.Swap(&far)
		case <-c.stop:
			return
		}
	}
}

// Open returns the dispersed object stored under name, creating its share
// object (a MaxRegister) on every reachable node. Up to f nodes may be
// unreachable; their opens are retried lazily by the first operation that
// finds them back.
func (c *Client) Open(name string) (*Object, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("cluster: client closed")
	}
	if obj, ok := c.objects[name]; ok {
		c.mu.Unlock()
		return obj, nil
	}
	c.mu.Unlock()

	o := &Object{c: c, name: name, nodes: make([]atomic.Pointer[client.Object], c.m.N()), healing: make([]atomic.Bool, c.m.N())}
	type res struct {
		i   int
		obj *client.Object
		err error
	}
	ch := make(chan res, c.m.N())
	for i := range c.clients {
		go func(i int) {
			obj, err := c.openNode(name, i)
			ch <- res{i, obj, err}
		}(i)
	}
	opened := 0
	var firstErr error
	for range c.clients {
		r := <-ch
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		o.nodes[r.i].Store(r.obj)
		opened++
		o.readers = r.obj.Readers()
	}
	if opened < c.m.Quorum() {
		return nil, fmt.Errorf("cluster: open %q reached %d of %d nodes, need %d: %w", name, opened, c.m.N(), c.m.Quorum(), firstErr)
	}
	o.rounds = make([]readRound, o.readers)

	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.objects[name]; ok {
		return prev, nil
	}
	c.objects[name] = o
	return o, nil
}

// openNode opens the share object on node i through its pool.
func (c *Client) openNode(name string, i int) (*client.Object, error) {
	cl := c.clients[i]
	if cl == nil {
		return nil, &client.NodeError{Addr: c.m.Nodes[i].Addr, Err: errNotDialed}
	}
	return cl.Open(name, store.MaxRegister)
}

// Object is one dispersed register: n per-node share objects behind a
// single Write/Read/Audit surface. The write side is serialized internally
// — the register is single-writer, and wids must be issued monotonically.
//
// A round's working memory lives here, not on the heap of each call: the
// writer's under wmu, each reader's under its own lock. Shares are addressed
// by node position throughout — row i of a share set is node i's share —
// and a subset is the ascending list of its positions.
type Object struct {
	c       *Client
	name    string
	readers int

	nodes   []atomic.Pointer[client.Object] // nil where the node has not been opened yet
	healing []atomic.Bool                   // by position: a reader's probe is redialing the node (startWave)

	wmu    sync.Mutex
	synced bool   // wid recovered from a quorum this session
	wid    uint64 // newest wid this writer installed or observed
	w      writeRound

	rounds []readRound // per reader: serialization of ReadTraced and its scratch

	amu sync.Mutex // serializes Audit
	aud auditState
}

// writeRound is the writer's scratch, guarded by wmu. A fan-out's legs get
// their masked share by value, so a straggler never reads it.
type writeRound struct {
	shares [][]byte // the split of the value being written
	masked []uint64 // shares[i] under node i's SharePad
	ida    ida.Scratch
}

// readRound is one reader's state, guarded by mu (which also serializes the
// reader's ReadTraced calls). Only the collecting goroutine touches it: a
// straggler's answer lands in its round's client.Round and nowhere else.
type readRound struct {
	mu    sync.Mutex
	n     uint64    // rounds this reader has run: whose turn it is to sit out, and when to probe
	first int       // this round's order of asking starts here
	legs  int       // legs started this round
	asked []bool    // by position: a leg was started this round
	quar  []bool    // by position: quarantined when the round began
	wid   []uint64  // by position: the write id this round's answer carried
	have  []bool    // by position: answered this round
	share [][]byte  // by position: the unmasked share
	pads  []padMemo // by position: the pad of the wid the node last answered with
	cand  []int     // the positions holding the candidate wid
	dec   decoder
}

// Name returns the object's name.
func (o *Object) Name() string { return o.name }

// Readers returns the reader count m of the share objects.
func (o *Object) Readers() int { return o.readers }

// node returns node i's share-object handle, retrying the open lazily when
// the node was unreachable before.
func (o *Object) node(i int) (*client.Object, error) {
	if obj := o.nodes[i].Load(); obj != nil {
		return obj, nil
	}
	obj, err := o.c.openNode(o.name, i)
	if err != nil {
		return nil, err
	}
	if !o.nodes[i].CompareAndSwap(nil, obj) {
		obj = o.nodes[i].Load()
	}
	return obj, nil
}

// slowLeg runs node i's leg of a round — reader's share fetch, or, with
// reader < 0, the share write of (wid, share) — through the blocking client
// calls and delivers into rd, which already expects it. It is for a leg that
// cannot start from the caller's goroutine without waiting (lazy open,
// redial, the reader's slot) and runs on a goroutine of its own; it is handed
// its share by value, so the caller's scratch is its own when the round
// returns.
func (o *Object) slowLeg(reader int, wid, share uint64, i int, rd *client.Round) {
	res := client.ShareResult{Tag: i}
	obj, err := o.node(i)
	switch {
	case err != nil:
		res.Err = err
	case reader >= 0:
		res.Value, res.Err = obj.ShareRead(reader)
	default:
		res.Value, res.Err = obj.ShareWrite(wid, share, o.c.shareLen)
	}
	rd.Deliver(res)
}

// writeQuorum runs one n-wide write fan-out — the share write of wid,
// masked[i] going to node i; wid 0 with no shares is the wid-sync probe —
// until it is decided: success once quorum (n−f) nodes acked, failure once
// more than f have errored. It returns the ack count, the newest resident wid
// the acks reported and the first error. Caller holds wmu.
//
// Legs start from the calling goroutine and complete on their connections'
// read loops; the collector is woken once, by the ack that completes the
// quorum. Writes stay n-wide whatever the readers do: quorum intersection and
// quarantine-never-blocks-writes need it. Stragglers deliver into the Round
// after this returns (invariant: fan-out-never-blocks-past-quorum).
func (o *Object) writeQuorum(wid uint64, masked []uint64) (acks int, resident uint64, firstErr error) {
	n, q := o.c.m.N(), o.c.m.Quorum()
	rd := client.NewRound()
	defer rd.Release()
	for i := 0; i < n; i++ {
		var share uint64
		if masked != nil {
			share = masked[i]
		}
		if obj := o.nodes[i].Load(); obj == nil || !obj.StartShareWrite(wid, share, o.c.shareLen, i, rd) {
			rd.Expect()
			go o.slowLeg(-1, wid, share, i, rd)
		}
	}
	for got := 0; got < n && acks < q && got-acks <= n-q; {
		fresh, _ := rd.Wait(got+q-acks, nil)
		for _, r := range fresh {
			got++
			if r.Err != nil {
				if firstErr == nil {
					firstErr = r.Err
				}
				continue
			}
			acks++
			if r.Value > resident {
				resident = r.Value
			}
		}
	}
	return acks, resident, firstErr
}

// syncWid recovers the writer's wid from a quorum of probe responses: the
// maximum resident wid across n−f nodes is ≥ the newest completed write's
// wid (its write quorum intersects any n−f responses in ≥ k ≥ 1 nodes), so
// issuing from there preserves monotonicity across writer restarts.
// Caller holds wmu.
func (o *Object) syncWid() error {
	acks, resident, firstErr := o.writeQuorum(0, nil)
	if acks < o.c.m.Quorum() {
		return fmt.Errorf("cluster: wid sync %q reached %d of %d nodes, need %d: %w", o.name, acks, o.c.m.N(), o.c.m.Quorum(), firstErr)
	}
	if resident > o.wid {
		o.wid = resident
	}
	o.synced = true
	return nil
}

// Write disperses v across the cluster as write id wid+1: IDA-split into n
// shares, each masked under its node's SharePad and installed on its node
// as the packed MaxRegister value. The call succeeds once n−f nodes have
// acknowledged — by quorum intersection, every subsequent quorum read then
// holds ≥ k shares and reconstructs v (or something newer). A failed write
// (under-quorum) leaves the wid burned and the writer unsynced; the next
// write re-probes before issuing.
func (o *Object) Write(v uint64) error {
	o.wmu.Lock()
	defer o.wmu.Unlock()
	if !o.synced {
		if err := o.syncWid(); err != nil {
			return err
		}
	}
	wid := o.wid + 1
	if maxWid := uint64(1)<<(64-8*uint(o.c.shareLen)) - 1; wid > maxWid {
		return fmt.Errorf("cluster: write %q: wid space exhausted (%d bits)", o.name, 64-8*o.c.shareLen)
	}

	var data [8]byte
	for i := range data {
		data[i] = byte(v >> (56 - 8*i))
	}
	w := &o.w
	if w.shares == nil {
		w.shares = ida.ShareRows(o.c.m.N(), o.c.shareLen)
		w.masked = make([]uint64, o.c.m.N())
	}
	o.c.cod.SplitInto(w.shares, data[:], &w.ida)
	for i, sh := range w.shares {
		w.masked[i] = ShareToUint(sh) ^ SharePad(o.c.m.Secret, o.c.m.Nodes[i].ID, o.name, wid, o.c.shareLen)
	}

	// The write is complete at quorum acks by definition — any later quorum
	// read intersects the ack set in ≥ k nodes; a hung node's share install
	// proceeds in the background and lands whenever it lands.
	acks, maxResident, firstErr := o.writeQuorum(wid, w.masked)
	// Adopt whatever newer wid the cluster reports — a recovered node may
	// hold a wid this writer issued before a crash and forgot.
	if maxResident > wid {
		o.wid = maxResident
	} else {
		o.wid = wid
	}
	if acks < o.c.m.Quorum() {
		o.synced = false
		return fmt.Errorf("cluster: write %q wid %d acked by %d of %d nodes, need %d: %w", o.name, wid, acks, o.c.m.N(), o.c.m.Quorum(), firstErr)
	}
	return nil
}

// ReadTrace documents how a cluster read resolved — the evidence the E19
// harness needs to reason about reads that raced a crash.
type ReadTrace struct {
	// Wid is the write id the read reconstructed; 0 means the initial
	// value (no write had completed anywhere the read looked).
	Wid uint64
	// Responded is how many nodes answered the final share-fetch round.
	Responded int
	// Shares is how many of those responses carried Wid.
	Shares int
	// Stale reports that some node answered with a DIFFERENT wid than the
	// one reconstructed: the read overlapped a write (or a recovering
	// node). Its per-node fetches at those other wids are in the nodes'
	// audit logs, so a verification harness must expect the merged audit to
	// charge this reader with those wids too once k nodes agree.
	Stale bool
	// Retries counts extra fan-out rounds spent waiting out an in-flight
	// write or a node outage.
	Retries int
	// Failed lists the node ids that errored in the final round.
	Failed []uint32
	// Corrupted lists the node ids whose shares disagreed with the value
	// the final round accepted: each one answered, at the right wid, with
	// arithmetic that does not fit the quorum-supported decode. The client
	// has already quarantined them (see Client.Suspects); the trace is how
	// a harness proves detection fired on this very read.
	Corrupted []uint32
}

// Read returns the dispersed object's current value as seen by the given
// reader index. See ReadTraced.
func (o *Object) Read(reader int) (uint64, error) {
	v, _, err := o.ReadTraced(reader)
	return v, err
}

// Read retry schedule: a round that cannot resolve (under-quorum, or no wid
// at threshold because a write is in flight) backs off and re-fans-out,
// doubling up to readMaxDelay, giving up after readRetryWindow. With a live
// writer the unresolvable window is one write fan-out; with f crashed nodes
// a quorum still answers, so retries terminate in practice long before the
// window does.
const (
	readBaseDelay   = 200 * time.Microsecond
	readMaxDelay    = 5 * time.Millisecond
	readRetryWindow = 2 * time.Second
)

// ReadTraced performs the cluster read and returns its trace: share fetches
// go to a quorum of n−f nodes (and to the rest only on evidence, see
// readOnce), the round waits for n−f answers, and the newest write id holding
// ≥ k shares among them is unmasked and IDA-reconstructed.
// Quorum intersection guarantees ≥ k responses at or above the newest
// completed write's wid; when they are split across that wid and an
// in-flight successor (so no single wid reaches k), the round is
// inconclusive and the read retries — the register is regular, not atomic,
// and its reads are live while the single writer is (each write completes,
// resolving the split). A wid seen on fewer than k nodes is never returned:
// its write has not completed, and k is exactly the knowledge threshold.
//
// Each share fetch is an audited read on its node: the node journals the
// (reader, packed value) fetch exactly as a plain read would be journaled,
// which is what makes the merged audit exact. The reader principal appears
// in k nodes' logs iff it obtained k shares — iff it could know the value.
func (o *Object) ReadTraced(reader int) (uint64, ReadTrace, error) {
	if reader < 0 || reader >= o.readers {
		return 0, ReadTrace{}, fmt.Errorf("cluster: read %q: reader %d out of range [0, %d)", o.name, reader, o.readers)
	}
	rs := &o.rounds[reader]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.wid == nil {
		n := o.c.m.N()
		rs.wid, rs.have, rs.cand = make([]uint64, n), make([]bool, n), make([]int, 0, n)
		rs.asked, rs.quar, rs.pads = make([]bool, n), make([]bool, n), make([]padMemo, n)
		rs.share = ida.ShareRows(n, o.c.shareLen)
		rs.dec.init(o.c)
	}

	var trace ReadTrace
	delay := readBaseDelay
	var deadline time.Time // set by the first retry: most reads never need it
	for {
		v, done, err := o.readOnce(reader, rs, &trace)
		if done {
			return v, trace, err
		}
		if now := time.Now(); deadline.IsZero() {
			deadline = now.Add(readRetryWindow)
		} else if now.After(deadline) {
			return v, trace, err
		}
		trace.Retries++
		time.Sleep(delay)
		if delay *= 2; delay > readMaxDelay {
			delay = readMaxDelay
		}
	}
}

// hedgeDelay is the least a round waits for its first wave before it widens
// (twice it the most, see Client.tick): above a healthy fetch even when
// the answer waits for a journal fsync (p99 ≈ 8 ms on the reference VM; 2 ms
// fired on six durable rounds in ten), two orders below the request timeouts
// in use.
const hedgeDelay = 10 * time.Millisecond

// probeEvery is how often a reader asks the positions it leaves out for
// cause: one round in 16 keeps that under a tenth of a leg per read.
const probeEvery = 16

// Why a round widened; the index into counters.widened.
const (
	widenLegError = iota
	widenInconclusive
	widenHedge
)

// startWave starts the first wave of reader's round into rd: share fetches
// to a quorum of q = n−f nodes, not to the membership — a fetch is a logged
// access, and one the read does not need charges the reader for nothing. Who
// sits out, in this order: a position whose leg cannot start inline (never
// opened, dead connection, the reader's slot there held by a straggler); a
// quarantined one; the f positions at the reader's turn, which moves one a
// round so every node keeps serving n−f reads in n. Nothing here looks at a
// value, a wid or the reader's index (DESIGN.md, "Quorum rules").
//
// Every probeEvery-th round a position that sat out for cause is asked all
// the same: a quarantined node inline, so that its share is voted on, the
// others through a healing slow leg, which redials, reopens and waits for the
// slot. It returns how many legs the collector should wait for before
// deciding: the quorum, or every inline leg of a probe round.
func (o *Object) startWave(reader int, rs *readRound, rd *client.Round) (await int) {
	n, q := o.c.m.N(), o.c.m.Quorum()
	rs.n++
	rs.first = int(rs.n%uint64(n)) + o.c.m.F // the turn's f positions come last
	suspects := o.c.suspects.quarantined(rs.quar)
	rs.legs = 0
	clear(rs.asked)
	want := q
	if skipped := o.inline(reader, rs, rd, q, true); (suspects || skipped) && rs.n%probeEvery == 0 {
		want = n
		o.c.ctr.fullWaveReads.Add(1)
	}
	o.inline(reader, rs, rd, want, false)
	await = max(rs.legs, q)
	o.slow(reader, rs, rd, q, false)
	o.slow(reader, rs, rd, want, true)
	o.c.ctr.fetchLegs.Add(uint64(rs.legs))
	return await
}

// inline starts, in the round's order, the legs that can start from this
// goroutine until want are on their way, passing over quarantined positions
// when trusted is set. It reports whether some leg could not start.
func (o *Object) inline(reader int, rs *readRound, rd *client.Round, want int, trusted bool) (skipped bool) {
	for j := 0; j < len(rs.asked) && rs.legs < want; j++ {
		i := (rs.first + j) % len(rs.asked)
		if rs.asked[i] || trusted && rs.quar[i] {
			continue
		}
		obj := o.nodes[i].Load()
		if rs.asked[i] = obj != nil && obj.StartShareRead(reader, i, rd); rs.asked[i] {
			rs.legs++
		} else {
			skipped = true
		}
	}
	return skipped
}

// slow starts slowLeg goroutines for positions not asked yet until want legs
// are on their way. A healing leg is a probe nobody waits for, one per
// position at a time: a node that stays away parks one goroutine.
func (o *Object) slow(reader int, rs *readRound, rd *client.Round, want int, heal bool) {
	for i := 0; i < len(rs.asked) && rs.legs < want; i++ {
		if rs.asked[i] || heal && !o.healing[i].CompareAndSwap(false, true) {
			continue
		}
		rs.asked[i] = true
		rs.legs++
		rd.Expect()
		go func() {
			o.slowLeg(reader, 0, 0, i, rd)
			if heal {
				o.healing[i].Store(false)
			}
		}()
	}
}

// widen asks every position the round has not asked yet.
func (o *Object) widen(reader int, rs *readRound, rd *client.Round, cause int) {
	before := rs.legs
	o.inline(reader, rs, rd, len(rs.asked), false)
	o.slow(reader, rs, rd, len(rs.asked), false)
	if rs.legs > before {
		o.c.ctr.widened[cause].Add(1)
		o.c.ctr.fetchLegs.Add(uint64(rs.legs - before))
	}
}

// readOnce runs one round; done=false means the round was inconclusive and
// the caller should retry (err then describes why, in case the retry window
// runs out first).
//
// The round returns as soon as the outcome is decided — usually when the
// quorum's last answer is in, the one time the collector is woken — and
// widens on evidence that the quorum will not do: a leg failed; its answers
// are inconclusive (shares disagree or a write is mid-flight, and the extra
// answers are what tips the consensus rule); or hedgeDelay passed with the
// wave still short. From then on it is woken per answer and gives up only
// when every node has answered (a request timeout bounds a hung straggler).
func (o *Object) readOnce(reader int, rs *readRound, trace *ReadTrace) (v uint64, done bool, err error) {
	n, q := o.c.m.N(), o.c.m.Quorum()
	rd := client.NewRound()
	defer rd.Release()
	need := o.startWave(reader, rs, rd)
	var tick <-chan struct{} // nil once the round has nobody left to ask and nothing extra to wait for
	if rs.legs < n || need > q {
		tick = *o.c.tick.Load()
	}

	trace.Responded, trace.Failed, trace.Corrupted = 0, trace.Failed[:0], trace.Corrupted[:0]
	clear(rs.have)
	var firstErr, lastReason error
	for got := 0; got < rs.legs; {
		fresh, hedged := rd.Wait(need, tick)
		if hedged {
			tick = nil
		}
		cause := -1
		for _, r := range fresh {
			got++
			if r.Err != nil {
				cause = widenLegError
				trace.Failed = append(trace.Failed, o.c.m.Nodes[r.Tag].ID)
				if firstErr == nil {
					firstErr = r.Err
				}
				if len(trace.Failed) > n-q {
					return 0, false, fmt.Errorf("cluster: read %q answered by %d of %d nodes, need %d: %w",
						o.name, trace.Responded, n, q, firstErr)
				}
				continue
			}
			trace.Responded++
			wid, masked := Unpack(r.Value, o.c.shareLen)
			rs.have[r.Tag], rs.wid[r.Tag] = true, wid
			pad := rs.pads[r.Tag].get(o.c.m.Secret, o.c.m.Nodes[r.Tag].ID, o.name, wid, o.c.shareLen)
			uintToShare(rs.share[r.Tag], masked^pad)
		}
		if trace.Responded >= q {
			if v, done, err = o.resolveRead(rs, trace); done {
				return v, true, err
			}
			lastReason = err
			if cause < 0 {
				cause = widenInconclusive
			}
		} else if hedged && cause < 0 {
			cause = widenHedge
		}
		if cause >= 0 {
			o.widen(reader, rs, rd, cause)
		}
		need = got + max(1, q-trace.Responded)
	}
	if lastReason == nil {
		lastReason = firstErr
	}
	return 0, false, fmt.Errorf("cluster: read %q inconclusive across %d responses: %w", o.name, trace.Responded, lastReason)
}

// resolveRead attempts to decide the read from the responses gathered so
// far (already ≥ quorum). Selection first: a completed write puts ≥ k
// nonzero-wid responses in any quorum (its write quorum intersects the
// responders in ≥ k nodes and wids only grow), so:
//
//   - some nonzero wid at ≥ k shares → newest such wid is the candidate;
//     its shares then face the verified decode, which accepts only with
//     quorum support — so a decode that succeeds is both fresh and correct
//     even against f Byzantine nodes;
//   - < k nonzero responses in total → no write has completed anywhere;
//     the register provably still holds its initial value (decided);
//   - otherwise — nonzero responses split below threshold, or a candidate
//     whose shares disagree without quorum support — the state is
//     inconclusive: an in-flight write, or corruption awaiting straggler
//     votes. Not decided; the caller gathers more answers or retries.
func (o *Object) resolveRead(rs *readRound, trace *ReadTrace) (v uint64, done bool, err error) {
	k := o.c.m.Threshold()
	best, nonzero, first := uint64(0), 0, -1
	trace.Stale = false
	for i, ok := range rs.have {
		if !ok {
			continue
		}
		w := rs.wid[i]
		if first < 0 {
			first = i
		} else if w != rs.wid[first] {
			trace.Stale = true
		}
		if w == 0 {
			continue
		}
		nonzero++
		if w <= best {
			continue
		}
		holders := 0
		for j, ok := range rs.have {
			if ok && rs.wid[j] == w {
				holders++
			}
		}
		if holders >= k {
			best = w
		}
	}
	if best == 0 && nonzero >= k {
		return 0, false, fmt.Errorf("cluster: read %q: no write id reached %d shares across %d responses (write in flight)", o.name, k, trace.Responded)
	}
	rs.cand = rs.cand[:0]
	for i, ok := range rs.have {
		if ok && rs.wid[i] == best {
			rs.cand = append(rs.cand, i)
		}
	}
	trace.Wid = best
	trace.Shares = len(rs.cand)

	if best == 0 {
		return 0, true, nil
	}
	v, corrupted, err := o.decodeShares(rs.share, rs.cand, true, &rs.dec)
	if len(corrupted) > 0 {
		trace.Corrupted = trace.Corrupted[:0]
		for _, i := range corrupted {
			trace.Corrupted = append(trace.Corrupted, o.c.m.Nodes[i].ID)
		}
	}
	if errors.Is(err, errInconclusive) {
		return 0, false, fmt.Errorf("cluster: read %q wid %d: %w", o.name, best, err)
	}
	if err != nil {
		return 0, true, fmt.Errorf("cluster: read %q wid %d: %w", o.name, best, err)
	}
	return v, true, nil
}
