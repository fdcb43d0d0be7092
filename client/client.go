// Package client is the Go client of auditd (package auditreg/server): a
// connection pool speaking the auditreg/wire protocol, with in-flight
// request multiplexing and typed Writer/Reader/Auditor handles mirroring the
// local store API.
//
// # Roles, client-side
//
// The paper's principals map onto client handles:
//
//   - Writers and plain applications call Object.Write / Object.Read.
//   - A Reader handle owns the reader principal's protocol state — the
//     silent-read cache (prev_sn, prev_val) — and drives the paper's read as
//     one wire message: READ-FETCH (the one fetch&xor, server-side; after a
//     fetch the server performs the helping CAS itself). Values arrive
//     XOR-masked under the connection's session secret; the client unmasks
//     locally, so one principal's values are opaque to every other curious
//     principal on the network.
//   - An Auditor handle requires the store key (WithKey): audit responses
//     carry reader sets XOR-masked under key-derived pads, and the client
//     unmasks them locally. Reader sets are decrypted only client-side, and
//     only by key holders — a client without the key cannot audit.
//
// # Concurrency
//
// A Client and its Objects are safe for concurrent use: requests from any
// number of goroutines multiplex over the pool, matched to responses by
// request id. Per-reader read state is serialized per (object, reader), as
// in the local store. Dead pool connections are transparently redialed on
// next use, so a server restart costs the requests in flight, not the
// Client.
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"auditreg"
	"auditreg/internal/telem"
	"auditreg/store"
	"auditreg/wire"
)

// DefaultConns is the default connection pool size.
const DefaultConns = 4

// Client is a pooled connection to one auditd server. Construct with Dial.
type Client struct {
	addr       string
	nconns     int
	key        auditreg.Key
	hasKey     bool
	timeout    time.Duration
	reqTimeout time.Duration
	dialer     Dialer
	node       uint32

	conns []*conn
	rr    atomic.Uint64 // round-robin cursor over conns

	// rtt is the retry-inclusive round-trip histogram over Write/Read/Audit
	// calls — the client-side end of the pipeline stage trace. Striped by
	// call start timestamp (concurrent callers share no stripe for long).
	rtt *telem.Hist

	mu      sync.Mutex
	objects map[string]*Object
	closed  bool
}

// Option configures a Client.
type Option func(*Client) error

// WithConns sets the connection pool size (default DefaultConns).
func WithConns(n int) Option {
	return func(c *Client) error {
		if n < 1 {
			return fmt.Errorf("client: pool size must be positive, got %d", n)
		}
		c.nconns = n
		return nil
	}
}

// WithKey provides the store key, enabling the auditor role: only a
// key-holding client can unmask the reader sets of audit responses. Never
// configure it on a reading principal's client.
func WithKey(key auditreg.Key) Option {
	return func(c *Client) error {
		c.key = key
		c.hasKey = true
		return nil
	}
}

// Dialer dials one transport connection to an auditd address. The default is
// net.DialTimeout over TCP; tests and simulations substitute their own — the
// netsim fabric's Dialer runs a whole cluster over in-process pipes with
// seeded per-link latency and partitions, no sockets involved.
type Dialer func(addr string, timeout time.Duration) (net.Conn, error)

// WithDialer substitutes the transport dialer (default TCP via
// net.DialTimeout). Every pool dial and redial goes through it.
func WithDialer(d Dialer) Option {
	return func(c *Client) error {
		if d == nil {
			return fmt.Errorf("client: nil dialer")
		}
		c.dialer = d
		return nil
	}
}

// WithNode asserts which cluster node the dialed daemon must be (1-based
// node ids; see server.Config.NodeID). Every OPEN carries the assertion and
// a daemon configured as a different node — or as no node at all — refuses
// it before touching its store, so a transposed address list surfaces as
// ErrNodeMismatch instead of silently cross-wiring two nodes' share
// histories. Zero (the default) asserts nothing.
func WithNode(id uint32) Option {
	return func(c *Client) error {
		c.node = id
		return nil
	}
}

// WithDialTimeout bounds each connection attempt (default 10s).
func WithDialTimeout(d time.Duration) Option {
	return func(c *Client) error {
		if d <= 0 {
			return fmt.Errorf("client: dial timeout must be positive, got %v", d)
		}
		c.timeout = d
		return nil
	}
}

// WithRequestTimeout bounds every waited round trip on the pool: a request
// with no response after d — including time spent queued behind a stalled
// flush — kills its connection with a cause wrapping ErrTimeout, failing
// every request in flight there fast instead of letting a hung peer (a
// partition that drops bytes without resetting the connection) wedge callers
// forever. The pool redials on next use as with any dead connection. Zero
// (the default) disables enforcement and costs nothing per request.
func WithRequestTimeout(d time.Duration) Option {
	return func(c *Client) error {
		if d < 0 {
			return fmt.Errorf("client: request timeout must be non-negative, got %v", d)
		}
		c.reqTimeout = d
		return nil
	}
}

// Dial connects the pool to addr.
func Dial(addr string, opts ...Option) (*Client, error) {
	c := &Client{
		addr:    addr,
		nconns:  DefaultConns,
		timeout: 10 * time.Second,
		objects: make(map[string]*Object),
		rtt:     telem.NewHist(0),
	}
	for _, opt := range opts {
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	if c.dialer == nil {
		c.dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	c.conns = make([]*conn, c.nconns)
	for i := range c.conns {
		cn, err := dialConn(addr, c.timeout, c.reqTimeout, c.dialer, c.node)
		if err != nil {
			for _, prev := range c.conns[:i] {
				prev.close(err)
			}
			return nil, err
		}
		c.conns[i] = cn
	}
	return c, nil
}

// Addr returns the address the pool dials — the identity a cluster caller
// correlates NodeErrors against.
func (c *Client) Addr() string { return c.addr }

// Close tears the pool down; in-flight requests fail with a closed-client
// error.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := append([]*conn(nil), c.conns...)
	c.mu.Unlock()
	for _, cn := range conns {
		cn.close(errClientClosed)
	}
	return nil
}

// next returns the next pool connection, round robin, dead or alive: the
// non-blocking half of pick, which is all a fan-out's fast path may do on
// its caller's goroutine.
func (c *Client) next() (cn *conn, idx int, closed bool) {
	idx = int(c.rr.Add(1) % uint64(len(c.conns)))
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conns[idx], idx, c.closed
}

// pick returns the next pool connection, round robin. A connection that has
// died (server restart, TCP reset) is transparently replaced by a fresh
// dial, so one failure degrades a single request, not 1/nconns of all
// future ones; the replacement connection re-learns its session secret and
// opened objects lazily. If the redial itself fails, the dead connection is
// returned and the caller's request surfaces its error.
func (c *Client) pick() *conn {
	cn, idx, closed := c.next()
	if closed || !cn.isDead() {
		return cn
	}
	// Redial outside the client lock: a blocking dial must stall only this
	// request, never the healthy connections.
	fresh, err := dialConn(c.addr, c.timeout, c.reqTimeout, c.dialer, c.node)
	if err != nil {
		return cn
	}
	c.mu.Lock()
	switch {
	case c.closed:
		c.mu.Unlock()
		fresh.close(errClientClosed)
		return cn
	case c.conns[idx] != cn:
		// Another goroutine already replaced the slot; use its dial.
		cur := c.conns[idx]
		c.mu.Unlock()
		fresh.close(errClientClosed)
		return cur
	default:
		c.conns[idx] = fresh
		c.mu.Unlock()
		return fresh
	}
}

// Open returns the remote object stored under name, creating it with the
// given kind if absent — client-side mirror of store.Store.Open. Remotable
// kinds are store.Register and store.MaxRegister. Opening validates kind
// agreement server-side; OpenOptions apply only if this open creates the
// object.
func (c *Client) Open(name string, kind store.Kind, opts ...OpenOption) (*Object, error) {
	var cfg openConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	wk, ok := kindToWire(kind)
	if !ok {
		return nil, fmt.Errorf("client: open %q: kind %v is not remotable", name, kind)
	}
	if name == "" || len(name) > wire.MaxName {
		return nil, fmt.Errorf("client: open: name length must be in [1, %d], got %d", wire.MaxName, len(name))
	}

	var resp wire.OpenResp
	if err := retryBusy(func() error {
		var err error
		resp, err = c.pick().open(name, wk, cfg.capacity)
		return err
	}); err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClientClosed
	}
	if obj, ok := c.objects[name]; ok {
		return obj, nil
	}
	obj := &Object{
		c:       c,
		name:    name,
		kind:    kind,
		wkind:   wk,
		readers: int(resp.Readers),
		slots:   make([]readSlot, resp.Readers),
	}
	c.objects[name] = obj
	return obj, nil
}

// Stats fetches the server's counters, sorted by name.
func (c *Client) Stats() ([]wire.StatPair, error) {
	resp, err := c.StatsInfo()
	if err != nil {
		return nil, err
	}
	return resp.Pairs, nil
}

// StatsInfo fetches the full STATS response: the counter pairs plus the
// daemon's build info, uptime, and stats epoch (a scraper that sees the
// epoch decrease between calls knows the daemon restarted).
func (c *Client) StatsInfo() (wire.StatsResp, error) {
	r, err := c.pick().roundTrip(wire.VerbStats, (&wire.StatsReq{}).Append(nil))
	if err != nil {
		return wire.StatsResp{}, err
	}
	var statsResp wire.StatsResp
	err = decodeResp(r, wire.VerbStats, &statsResp)
	wire.PutBuf(r.buf)
	if err != nil {
		return wire.StatsResp{}, err
	}
	return statsResp, nil
}

// RTT returns a snapshot of the client's retry-inclusive round-trip
// histogram: every Object.Write, Object.Read, and Auditor audit call
// contributes one observation covering redials, backoff, and retries.
func (c *Client) RTT() telem.Snapshot { return c.rtt.Snapshot() }

// OpenOption configures one Open call.
type OpenOption func(*openConfig)

type openConfig struct {
	capacity uint32
}

// WithObjectCapacity overrides the server's default audit-history capacity
// if this open creates the object.
func WithObjectCapacity(n int) OpenOption {
	return func(c *openConfig) {
		if n > 0 {
			c.capacity = uint32(n)
		}
	}
}

// kindToWire maps a store kind to its wire byte; Snapshot has none. The
// numeric correspondence is pinned by compile-time assertions in package
// auditreg/server; remotability has one source of truth, wire.RemotableKind.
func kindToWire(k store.Kind) (uint8, bool) {
	return uint8(k), wire.RemotableKind(uint8(k))
}

// remoteErr converts an ErrResp into a Go error carrying the matching
// sentinel, so errors.Is works across the wire.
func remoteErr(e *wire.ErrResp) error {
	switch e.Code {
	case wire.CodeNotFound:
		return fmt.Errorf("client: %s: %w", e.Msg, store.ErrNotFound)
	case wire.CodeKindMismatch:
		return fmt.Errorf("client: %s: %w", e.Msg, store.ErrKindMismatch)
	case wire.CodeBusy:
		return fmt.Errorf("client: %w", wire.ErrBusy)
	case wire.CodeNodeMismatch:
		return fmt.Errorf("client: %s: %w", e.Msg, ErrNodeMismatch)
	default:
		return fmt.Errorf("client: remote error %d: %s", e.Code, e.Msg)
	}
}

// Busy-retry backoff bounds: the first retry waits about busyBaseDelay,
// doubling (with jitter) up to busyMaxDelay, and an op that stays shed past
// busyRetryWindow surfaces wire.ErrBusy to the caller.
const (
	busyBaseDelay   = 100 * time.Microsecond
	busyMaxDelay    = 10 * time.Millisecond
	busyRetryWindow = 2 * time.Second
)

// The backoff's clock, sleeper, and jitter draw are package variables so
// the retry loop is testable against a deterministic schedule; production
// always runs the defaults below.
var (
	busyNow   = time.Now
	busySleep = time.Sleep
	// busyJitter draws the full-jitter pause for the current backoff step: a
	// uniform draw in (0, delay], floored at one microsecond, so shed
	// clients desynchronize instead of stampeding the shard back to its
	// watermark in lockstep.
	busyJitter = func(delay time.Duration) time.Duration {
		return time.Duration(rand.Int63n(int64(delay))) + time.Microsecond
	}
)

// retryBusy runs op, retrying with jittered exponential backoff while the
// server sheds it under admission control (wire.ErrBusy). Every retry
// re-encodes and may land on a different pool connection; ops that are not
// idempotent-safe to repeat (none — every verb here is) would not use this.
func retryBusy(op func() error) error {
	delay := busyBaseDelay
	var deadline time.Time
	for {
		err := op()
		if err == nil || !errors.Is(err, wire.ErrBusy) {
			return err
		}
		now := busyNow()
		if deadline.IsZero() {
			deadline = now.Add(busyRetryWindow)
		} else if now.After(deadline) {
			return err
		}
		busySleep(busyJitter(delay))
		if delay *= 2; delay > busyMaxDelay {
			delay = busyMaxDelay
		}
	}
}

// decodeResp decodes r's body into msg when it carries want; an ErrResp
// becomes the matching Go error. The caller still owns (and recycles)
// r.buf.
func decodeResp(r resp, want wire.Verb, msg interface{ Decode([]byte) error }) error {
	if r.verb != want {
		return respError(r.verb, r.buf.B, want)
	}
	return msg.Decode(r.buf.B)
}

// respError turns an unexpected response — an ErrResp, or a verb mismatch —
// into the error the caller surfaces. Split from decodeResp so hot callers
// can decode their expected response inline (no interface indirection) and
// fall back here only on the cold failure path.
func respError(verb wire.Verb, body []byte, want wire.Verb) error {
	if verb == wire.VerbErr {
		var e wire.ErrResp
		if err := e.Decode(body); err != nil {
			return fmt.Errorf("client: malformed error response: %w", err)
		}
		return remoteErr(&e)
	}
	return fmt.Errorf("client: response verb %v, want %v", verb, want)
}
