// Package server implements auditd, the network service over the sharded
// store: a TCP server hosting one store.Store[uint64] — and one shared
// store.AuditPool sweeping it in the background — behind the length-prefixed
// binary protocol of package auditreg/wire.
//
// # Connection model
//
// Each accepted connection gets a reader that decodes request frames and
// runs them to completion. It enqueues each request — by the FNV-1a hash of
// its object name, the same hash the store's shard map and the WAL's stripe
// map use — on one of the server's execution shards, a bounded queue plus a
// busy flag, and, finding the shard idle, takes the flag and executes what
// is queued there: its own request and whatever other connections' readers
// added meanwhile. A reader that finds the shard busy leaves its request to
// the one draining it. Operations of one shard therefore never run
// concurrently while distinct shards run in parallel, with no goroutine
// per shard and no hand-off on the common path. Responses are appended to
// the connection's pending list and leave in combining flushes: the reader
// corks while its buffer holds further complete requests and flushes when
// it would block (k requests in one segment, one writev); the completion
// stage, which holds back the responses of journaled mutations until their
// durability verdict, flushes each as its verdict arrives; a reader that
// executed another connection's request flushes that connection after it
// released the shard — a shard is never held across a socket write.
// Requests pipeline naturally — a client may have any number of frames in
// flight — and per-object order is preserved (one object, one queue, one
// drainer at a time), which is also why the server can perform a fetched
// read's helping announce itself, right after the fetch: no write on that
// object is ever half-finished in between. Each shard queue is bounded; a
// request that finds it full — that many requests of other connections
// already wait there — is shed with a CodeBusy error instead of queued, so
// overload degrades into client retries, not unbounded latency. A
// connection's own pipeline is back-pressured by its socket: its reader
// does not read on before it has run or queued what it read.
//
// # Trust boundary
//
// The server sits on the writer/auditor side of the paper's trust boundary:
// it holds the store key (it derives every object's pad stream from it), and
// the store's writers decrypt outgoing reader sets into the audit arrays in
// server memory. What the server never does is put a decrypted reader set on
// the wire: READ-FETCH responses carry no reader-set bits at all, and AUDIT
// responses carry reader sets XOR-masked under fresh pads only key-holding
// auditor clients can remove (see the wire package and DESIGN.md's "Network
// layer" section). Remote readers drive the paper's read algorithm through
// the READ-FETCH verb (the server announces after a fetch, as a local read
// does), and the server's persistent per-(object, reader) handles enforce the at-most-one-fetch&xor-per-write invariant no
// matter how a remote client misbehaves. Principal authentication is not
// the protocol's job: connections do not prove which reader index they act
// for (the deployment's authenticated channel binds identities to reader
// indices); see DESIGN.md, "What the server does and does not enforce".
//
// # Shutdown
//
// Shutdown drains gracefully: stop accepting, kick every connection's reader
// off its socket, execute the requests already buffered, flush every pending
// response — a connection closes only after its in-flight requests have run,
// their durability verdicts are in and the last flush is out — then stop the
// audit pool. Clients see clean EOFs at frame boundaries.
package server

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"auditreg"
	"auditreg/persist"
	"auditreg/store"
	"auditreg/wire"
)

// Config configures a Server. The zero value of every optional field selects
// the documented default.
type Config struct {
	// Key is the store master key: the writers'/auditors' secret every
	// hosted object derives its pad stream from. Required.
	Key auditreg.Key
	// Readers is the reader count m of every hosted object (default
	// store.DefaultReaders).
	Readers int
	// Shards is the store's shard count (default shard.DefaultShards).
	Shards int
	// ExecShards is the number of execution shards — the queues requests
	// are routed to by object-name hash, each drained by one connection's
	// reader at a time (default runtime.GOMAXPROCS(0), rounded up to a
	// power of two). One shard per core is the intended shape; more only
	// adds queues.
	ExecShards int
	// ShardQueue bounds each shard's request queue (default
	// defaultShardQueue): how many requests may wait behind another
	// connection's drain. A routed request that finds the queue full is
	// shed with a CodeBusy error — the admission-control high watermark.
	ShardQueue int
	// Capacity is the default per-object audit-history capacity (default
	// store.DefaultCapacity).
	Capacity int
	// PoolWorkers and PoolInterval configure the shared audit pool
	// (defaults store.DefaultPoolWorkers, store.DefaultPoolInterval).
	PoolWorkers  int
	PoolInterval time.Duration
	// DataDir, when non-empty, makes the store durable: on construction the
	// directory is recovered into the store (package auditreg/persist), and
	// every subsequent mutation is journaled to its write-ahead log. All
	// durable state stays masked under pads derived from a key held only in
	// server memory — never in the directory.
	DataDir string
	// Fsync selects the WAL durability policy (default persist.SyncAlways);
	// FsyncInterval and SegmentBytes tune it (defaults in persist).
	Fsync         persist.Policy
	FsyncInterval time.Duration
	SegmentBytes  int64
	// WALStripes is the WAL stripe-group count (default in persist:
	// runtime.GOMAXPROCS(0)). A non-empty data directory pins its own
	// count; see persist.Options.Stripes.
	WALStripes int
	// NodeID is this daemon's cluster node id (1-based; 0 means standalone,
	// not part of a cluster). A dispersing client (package auditreg/cluster)
	// derives each node's share pads from the node id it maps an address to,
	// so OPEN requests asserting a different id are refused with
	// CodeNodeMismatch and OPEN responses echo the configured id.
	NodeID uint32
	// FrameTap, when non-nil, is invoked synchronously with every complete
	// frame the server transmits (outbound true) or receives (outbound
	// false). Test instrumentation — the leak tests assert over every
	// transmitted frame; do not set it in production.
	FrameTap func(outbound bool, frame []byte)
	// LeakyPerObjectReads plants a per-object read counter in the metrics
	// endpoint — a deliberate violation of the aggregate-only telemetry
	// contract, existing only as the E18 lab's positive control (the
	// metrics observer must detect it). Never enable in production.
	LeakyPerObjectReads bool
	// CorruptShares makes the daemon Byzantine on the share-read path: every
	// SHARE-FETCH that carries a value has one bit of its share flipped on
	// the wire. The E20 chaos lab's positive control — the dispersing
	// client's verified reconstruction must detect and quarantine this node,
	// never return a wrong value. The corruption is wire-only: the journal
	// records the honest share, so merged audits stay exact, and the
	// served-corrupt count is published as the share-corrupts-served STATS
	// counter (what cmd/auditctl's SUSPECT state keys on). Never enable in
	// production.
	CorruptShares bool
}

// Server hosts a store behind a TCP listener. Construct with New; serve with
// Serve or ListenAndServe; stop with Shutdown.
type Server struct {
	cfg   Config
	st    *store.Store[uint64]
	pool  *store.AuditPool[uint64]
	wal   *persist.WAL
	recov *persist.RecoverResult
	epoch uint64
	start time.Time

	// Execution shards: a conn reader enqueues each request on
	// shards[hash&shardMask] and drains that shard if nobody else is (see
	// shardQueue). No goroutine belongs to a shard, so there is nothing to
	// start or stop: the queues are empty once every conn is gone.
	shards    []*shardQueue
	shardMask uint64

	// tel holds the per-stage pipeline histograms (see metrics.go);
	// statsEpoch advances on every counter snapshot; connSeq hands each
	// accepted connection a telemetry stripe slot.
	tel        *serverTelem
	statsEpoch atomic.Uint64
	connSeq    atomic.Uint64

	// The planted per-object read counter behind Config.LeakyPerObjectReads
	// (positive control only; see metrics.go).
	leakyMu    sync.Mutex
	leakyReads map[string]uint64

	// Share-mode registry: the pinned packing width (share bytes) of every
	// object that has taken a SHARE-WRITE this boot. Advisory — correctness
	// rides on the MaxRegister's packed-value ordering, which survives
	// recovery; the registry only rejects width drift within a boot and
	// feeds the cluster STATS block.
	shareMu   sync.RWMutex
	shareLens map[string]uint8

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining bool

	wg sync.WaitGroup

	// The hot-path counters. Each is exported by exactly one row of the
	// counter table (metrics.go), which says under what names.
	opens, writes, announces, audits, errs atomic.Uint64
	readsFetched, readsSilent              atomic.Uint64
	framesIn, framesOut, connsTotal        atomic.Uint64
	connFlushes, connFlushFrames           atomic.Uint64
	shareWrites, shareProbes               atomic.Uint64
	shareFetch, shareSilent                atomic.Uint64
	shareCorrupt                           atomic.Uint64 // shares deliberately corrupted (Config.CorruptShares)
}

// New returns a server hosting a fresh store configured per cfg. With a
// DataDir the store is first recovered from disk — the write-ahead log
// replays into it and the pool re-audits every object that had a published
// report before the crash — and then journaled for the server's lifetime.
// The audit pool starts with Serve.
func New(cfg Config) (*Server, error) {
	opts := []store.Option[uint64]{
		store.WithLess[uint64](func(a, b uint64) bool { return a < b }),
	}
	if cfg.Readers != 0 {
		opts = append(opts, store.WithReaders[uint64](cfg.Readers))
	}
	if cfg.Shards != 0 {
		opts = append(opts, store.WithShards[uint64](cfg.Shards))
	}
	if cfg.Capacity != 0 {
		opts = append(opts, store.WithCapacity[uint64](cfg.Capacity))
	}
	st, err := store.New(cfg.Key, opts...)
	if err != nil {
		return nil, err
	}
	// The shard count doubles as the stripe count of the shard-side
	// histograms, so telemetry is built before the WAL — the WAL's fsync
	// timer is one of its stages.
	shards := cfg.ExecShards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	tel := newServerTelem(n)
	var wal *persist.WAL
	var recov *persist.RecoverResult
	if cfg.DataDir != "" {
		wal, recov, err = persist.Open(cfg.DataDir, persist.DeriveKey(cfg.Key), st, persist.Options{
			Policy:       cfg.Fsync,
			Interval:     cfg.FsyncInterval,
			SegmentBytes: cfg.SegmentBytes,
			Stripes:      cfg.WALStripes,
			SyncLatency:  tel.walFsync,
		})
		if err != nil {
			return nil, err
		}
		st.SetJournal(wal)
	}
	var poolOpts []store.PoolOption
	if cfg.PoolWorkers != 0 {
		poolOpts = append(poolOpts, store.WithPoolWorkers(cfg.PoolWorkers))
	}
	if cfg.PoolInterval != 0 {
		poolOpts = append(poolOpts, store.WithPoolInterval(cfg.PoolInterval))
	}
	pool, err := st.NewAuditPool(poolOpts...)
	if err != nil {
		if wal != nil {
			wal.Close()
		}
		return nil, err
	}
	if recov != nil {
		// Re-publish a report for every object that had one pre-crash, so
		// a client's first post-recovery Latest() is never emptier than its
		// last pre-crash one.
		for _, name := range recov.AuditedNames {
			if _, err := pool.AuditObject(name); err != nil {
				wal.Close()
				return nil, fmt.Errorf("server: re-audit %q after recovery: %w", name, err)
			}
		}
	}
	var eb [8]byte
	if _, err := rand.Read(eb[:]); err != nil {
		if wal != nil {
			wal.Close()
		}
		return nil, err
	}
	queueCap := cfg.ShardQueue
	if queueCap <= 0 {
		queueCap = defaultShardQueue
	}
	return &Server{
		cfg:       cfg,
		st:        st,
		pool:      pool,
		wal:       wal,
		recov:     recov,
		epoch:     binary.BigEndian.Uint64(eb[:]),
		start:     time.Now(),
		conns:     make(map[*conn]struct{}),
		shards:    newShards(n, queueCap),
		shardMask: uint64(n - 1),
		tel:       tel,
		shareLens: make(map[string]uint8),
	}, nil
}

// pinShareLen records the share width an object's first SHARE-WRITE of this
// boot declared and rejects later drift: two writers dispersing the same name
// with different (n, f) geometries would otherwise silently corrupt each
// other's packing. Returns the pinned width and whether want matches it. The
// name view aliases a pooled frame buffer, so the key is a stable copy.
func (s *Server) pinShareLen(name string, want uint8) (uint8, bool) {
	s.shareMu.RLock()
	got, ok := s.shareLens[name]
	s.shareMu.RUnlock()
	if ok {
		return got, got == want
	}
	s.shareMu.Lock()
	defer s.shareMu.Unlock()
	if got, ok := s.shareLens[name]; ok {
		return got, got == want
	}
	s.shareLens[strings.Clone(name)] = want
	return want, true
}

// Recovery returns what boot-time recovery reconstructed, nil when the
// server runs without a data dir.
func (s *Server) Recovery() *persist.RecoverResult { return s.recov }

// Snapshot compacts the write-ahead log (see persist.WAL.Snapshot); cmd/
// auditd triggers it on SIGHUP. It fails when the server has no data dir.
func (s *Server) Snapshot() (uint64, error) {
	if s.wal == nil {
		return 0, fmt.Errorf("server: no data dir configured")
	}
	return s.wal.Snapshot()
}

// Store returns the hosted store — the ground truth a test can audit
// locally.
func (s *Server) Store() *store.Store[uint64] { return s.st }

// Pool returns the shared audit pool.
func (s *Server) Pool() *store.AuditPool[uint64] { return s.pool }

// Addr returns the listener's address, nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// ListenAndServe listens on addr ("host:port"; ":0" picks a free port) and
// serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve starts the audit pool and accepts connections on ln until Shutdown
// closes it. It always closes ln and returns nil after a Shutdown-initiated
// stop.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.ln != nil {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: Serve called twice")
	}
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()

	defer ln.Close()
	if err := s.pool.Start(); err != nil {
		return err
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			// A spontaneous listener failure ends Serve without a
			// Shutdown: stop the pool here so its workers don't leak
			// (Stop and wal.Close are idempotent, so a later Shutdown is
			// still safe).
			s.pool.Stop()
			if s.wal != nil {
				s.wal.Close()
			}
			return err
		}
		c, err := newConn(s, nc)
		if err != nil {
			nc.Close()
			continue
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connsTotal.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			c.serve()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// Shutdown drains the server: stop accepting, let every connection finish
// the requests it has already received, flush pending responses, then stop
// the audit pool (final cursor state intact — a post-shutdown Flush on the
// pool still works). If ctx expires first, remaining connections are closed
// forcibly and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.beginDrain()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	// Every conn reader is gone, and each waited for its in-flight requests:
	// the shard queues are empty.
	s.pool.Stop()
	if s.wal != nil {
		// Last: every drained request has journaled by now. A clean close
		// seals the active segment, so the next boot finds no torn tail.
		if cerr := s.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// The wire kind bytes coincide with store.Kind by construction, so kind
// conversion is the identity plus wire.RemotableKind; these compile-time
// assertions pin the correspondence (they fail to compile if either side
// renumbers).
var (
	_ = [1]struct{}{}[store.Register-store.Kind(wire.KindRegister)]
	_ = [1]struct{}{}[store.MaxRegister-store.Kind(wire.KindMaxRegister)]
)

// kindFromWire maps a wire kind byte to the store kind, reporting whether it
// is remotable.
func kindFromWire(k uint8) (store.Kind, bool) {
	return store.Kind(k), wire.RemotableKind(k)
}

// kindToWire maps a store kind to its wire byte; Snapshot has none.
func kindToWire(k store.Kind) (uint8, bool) {
	return uint8(k), wire.RemotableKind(uint8(k))
}

// errCode classifies a store error for the wire.
func errCode(err error) wire.ErrCode {
	switch {
	case errors.Is(err, store.ErrNotFound):
		return wire.CodeNotFound
	case errors.Is(err, store.ErrKindMismatch):
		return wire.CodeKindMismatch
	default:
		return wire.CodeInternal
	}
}
