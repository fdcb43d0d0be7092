package store

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"auditreg"
	"auditreg/internal/core"
	"auditreg/internal/shard"
)

// Pool defaults.
const (
	DefaultPoolWorkers  = 4
	DefaultPoolInterval = 25 * time.Millisecond
)

// AuditPool audits a store's objects asynchronously, in batches: background
// workers sweep the shard map on an interval, each worker owning a disjoint
// set of shards per pass. Every object is audited through a persistent
// cursor — the auditor handle keeps the paper's lsa, so a sweep scans only
// the history suffix written since the previous one — and the resulting
// report (cumulative, as audits are) is published for lock-free reads via
// Report and Merged.
//
// The pool observes exactly the audit semantics of the per-object auditors:
// a published report is some linearized audit of that object, and reports
// only grow. Flush forces a synchronous full pass for callers that need
// every cursor advanced past all operations that happened before the call.
//
// Construct with Store.NewAuditPool; Start/Stop bracket the background
// workers, Flush also works on a pool that was never started (pure batch
// mode). All methods are safe for concurrent use.
type AuditPool[V comparable] struct {
	st       *Store[V]
	workers  int
	interval time.Duration

	cursors *shard.Map[*auditCursor[V]]
	stopc   chan struct{}
	stop    sync.Once
	started atomic.Bool
	wg      sync.WaitGroup

	sweeps  atomic.Uint64 // completed per-worker passes over their shards
	audited atomic.Uint64 // incremental per-object audits performed
	errs    atomic.Uint64
	lastErr atomic.Pointer[error]
}

// auditCursor is one object's audit state: the persistent auditor handle
// (not safe for concurrent use, hence the mutex) — aud for a Register or
// MaxRegister, snapAud for a Snapshot — and the latest published report.
// The report is two words: n, its pair count plus one (0: none yet), and
// base (vbase for a snapshot), the first entry of the auditor's append-only
// list, stored only when the list was reallocated and always before n. A
// reader loads n first: the base it then loads holds n entries for good.
type auditCursor[V comparable] struct {
	mu      sync.Mutex
	obj     *Object[V]
	aud     *auditreg.Auditor[V]
	snapAud *auditreg.SnapshotAuditor[V]
	// journaled: the audited mark went to the journal this boot.
	journaled bool
	n         atomic.Int64
	base      atomic.Pointer[auditreg.Entry[V]]
	vbase     atomic.Pointer[auditreg.ViewEntry[V]]
}

// PoolOption configures an AuditPool.
type PoolOption func(*poolConfig)

type poolConfig struct {
	workers  int
	interval time.Duration
}

// WithPoolWorkers sets the number of background sweep goroutines (default
// DefaultPoolWorkers, capped at the store's shard count).
func WithPoolWorkers(n int) PoolOption {
	return func(c *poolConfig) { c.workers = n }
}

// WithPoolInterval sets the pause between a worker's passes (default
// DefaultPoolInterval).
func WithPoolInterval(d time.Duration) PoolOption {
	return func(c *poolConfig) { c.interval = d }
}

// NewAuditPool returns an audit pool over the store's objects. The pool
// holds the store's audit secret by construction; like the store itself it
// must stay on the writer/auditor side of the trust boundary.
func (st *Store[V]) NewAuditPool(opts ...PoolOption) (*AuditPool[V], error) {
	cfg := poolConfig{workers: DefaultPoolWorkers, interval: DefaultPoolInterval}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.workers < 1 {
		return nil, fmt.Errorf("store: pool workers must be positive, got %d", cfg.workers)
	}
	if cfg.interval <= 0 {
		return nil, fmt.Errorf("store: pool interval must be positive, got %v", cfg.interval)
	}
	if cfg.workers > st.objects.Shards() {
		cfg.workers = st.objects.Shards()
	}
	cursors, err := shard.NewMap[*auditCursor[V]](st.objects.Shards())
	if err != nil {
		return nil, err
	}
	return &AuditPool[V]{
		st:       st,
		workers:  cfg.workers,
		interval: cfg.interval,
		cursors:  cursors,
		stopc:    make(chan struct{}),
	}, nil
}

// Start launches the background workers. A pool starts at most once.
func (p *AuditPool[V]) Start() error {
	if !p.started.CompareAndSwap(false, true) {
		return fmt.Errorf("store: audit pool already started")
	}
	for w := 0; w < p.workers; w++ {
		p.wg.Add(1)
		go p.run(w)
	}
	return nil
}

// Stop halts the background workers and waits for them to finish their
// current pass. Idempotent; the pool cannot be restarted, but Flush keeps
// working.
func (p *AuditPool[V]) Stop() {
	p.stop.Do(func() { close(p.stopc) })
	p.wg.Wait()
}

// run is one worker's loop: sweep the shards assigned to it (s ≡ w mod
// workers), then pause for the interval.
func (p *AuditPool[V]) run(w int) {
	defer p.wg.Done()
	timer := time.NewTimer(p.interval)
	defer timer.Stop()
	for {
		for s := w; s < p.st.objects.Shards(); s += p.workers {
			select {
			case <-p.stopc:
				return
			default:
			}
			p.sweepShard(s)
		}
		p.sweeps.Add(1)
		timer.Reset(p.interval)
		select {
		case <-p.stopc:
			return
		case <-timer.C:
		}
	}
}

// auditOne advances the named object's cursor by one incremental audit,
// with the pool's error and progress accounting; the one code path shared
// by background sweeps and on-demand audits.
func (p *AuditPool[V]) auditOne(name string, obj *Object[V]) (*auditCursor[V], error) {
	cur, _, _ := p.cursors.GetOrCreate(name, func() (*auditCursor[V], error) {
		return newAuditCursor(obj), nil
	})
	if err := cur.audit(); err != nil {
		p.errs.Add(1)
		e := err // stored by address: a copy here keeps err itself off the heap
		p.lastErr.Store(&e)
		return nil, err
	}
	p.audited.Add(1)
	return cur, nil
}

// sweepShard incrementally audits every object of shard s, returning the
// first error (audits fail only when an object outgrew its history
// capacity).
func (p *AuditPool[V]) sweepShard(s int) error {
	var first error
	p.st.objects.RangeShard(s, func(name string, obj *Object[V]) bool {
		if _, err := p.auditOne(name, obj); err != nil && first == nil {
			first = err
		}
		return true
	})
	return first
}

// Flush synchronously audits every object in the store, advancing each
// cursor past all operations linearized before the corresponding per-object
// audit, and returns the first error encountered. It may run concurrently
// with the background workers and works on a never-started pool.
func (p *AuditPool[V]) Flush() error {
	var first error
	for s := 0; s < p.st.objects.Shards(); s++ {
		if err := p.sweepShard(s); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// AuditObject synchronously advances the named object's audit cursor by one
// incremental audit and returns the freshly published cumulative report. It
// is the on-demand counterpart of a background sweep — same cursor, same
// report chain — for callers (the network layer's AUDIT verb) that need a
// report covering everything linearized before the call, without paying a
// full-store Flush.
func (p *AuditPool[V]) AuditObject(name string) (ObjectAudit[V], error) {
	obj, ok := p.st.objects.Get(name)
	if !ok {
		return ObjectAudit[V]{}, fmt.Errorf("store: pool audit %q: %w", name, ErrNotFound)
	}
	cur, err := p.auditOne(name, obj)
	if err != nil {
		return ObjectAudit[V]{}, err
	}
	rep, _ := cur.report()
	return rep, nil
}

// Rows is AuditObject for a caller that keeps the cumulative set itself and
// says how far it got — the network layer's AUDIT verb, whose client holds
// the paper's lsa as since: the rows of sequence range [since, rsn], at most
// limit of them, are handed to emit (see core.Auditor.Rows for what a row is
// and what next and more mean). With fresh the shared cursor first advances
// by one incremental audit, exactly as a sweep advances it; without, the
// replay is of what the cursor last published.
func (p *AuditPool[V]) Rows(name string, fresh bool, since uint64, limit int, emit func(val V, readers uint64)) (kind Kind, next uint64, more bool, err error) {
	obj, ok := p.st.objects.Get(name)
	if !ok {
		return 0, 0, false, fmt.Errorf("store: pool audit %q: %w", name, ErrNotFound)
	}
	cur, ok := p.cursors.Get(name)
	if fresh || !ok || cur.n.Load() == 0 {
		if cur, err = p.auditOne(name, obj); err != nil {
			return obj.kind, 0, false, err
		}
	}
	cur.mu.Lock()
	defer cur.mu.Unlock()
	if cur.aud == nil {
		return obj.kind, 0, false, fmt.Errorf("store: pool audit %q: %v objects have no audit rows: %w", name, obj.kind, ErrKindMismatch)
	}
	next, more, err = cur.aud.Rows(since, limit, emit)
	return obj.kind, next, more, err
}

// Report returns the named object's latest published audit, if the pool has
// audited it: a shard-map lookup (lock-free) plus two atomic loads, the
// published pair count and then the list it counts — it never contends with
// an in-progress audit of the object.
func (p *AuditPool[V]) Report(name string) (ObjectAudit[V], bool) {
	cur, ok := p.cursors.Get(name)
	if !ok {
		return ObjectAudit[V]{}, false
	}
	return cur.report()
}

// Merged returns the latest published audit of every audited object, sorted
// by object name. The reports are the auditors' zero-copy views (see
// auditreg.Report); no audit entries are copied.
func (p *AuditPool[V]) Merged() []ObjectAudit[V] {
	var out []ObjectAudit[V]
	p.cursors.Range(func(_ string, cur *auditCursor[V]) bool {
		if rep, ok := cur.report(); ok {
			out = append(out, rep)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Object < out[j].Object })
	return out
}

// Sweeps returns the number of completed per-worker passes.
func (p *AuditPool[V]) Sweeps() uint64 { return p.sweeps.Load() }

// Audited returns the number of incremental per-object audits performed.
func (p *AuditPool[V]) Audited() uint64 { return p.audited.Load() }

// Err returns the most recent audit error observed by the pool, if any.
func (p *AuditPool[V]) Err() error {
	if e := p.lastErr.Load(); e != nil {
		return *e
	}
	return nil
}

func newAuditCursor[V comparable](obj *Object[V]) *auditCursor[V] {
	cur := &auditCursor[V]{obj: obj}
	if obj.kind == Snapshot {
		cur.snapAud = obj.snap.Auditor()
	} else {
		cur.aud = obj.regs.Auditor()
	}
	return cur
}

// report rebuilds the published report from n and the base loaded after
// it: a read-only view of the auditor's list, its capacity its length.
func (c *auditCursor[V]) report() (ObjectAudit[V], bool) {
	n := int(c.n.Load()) - 1
	if n < 0 {
		return ObjectAudit[V]{}, false
	}
	rep := ObjectAudit[V]{Object: c.obj.name, Kind: c.obj.kind}
	if c.snapAud != nil {
		rep.Views = unsafe.Slice(c.vbase.Load(), n)
	} else {
		rep.Report = core.NewReportView(unsafe.Slice(c.base.Load(), n))
	}
	return rep, true
}

// audit advances the cursor by one incremental audit and publishes the
// cumulative report if it grew (audit sets only grow, so an unchanged pair
// count is an unchanged set); a sweep allocates only when the list regrows.
func (c *auditCursor[V]) audit() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int
	if c.aud != nil {
		rep, err := c.aud.Audit()
		if err != nil {
			return fmt.Errorf("store: pool audit %q: %w", c.obj.name, err)
		}
		entries := rep.From(0)
		if b := unsafe.SliceData(entries); b != c.base.Load() {
			c.base.Store(b)
		}
		n = len(entries)
	} else {
		views, err := c.snapAud.Audit()
		if err != nil {
			return fmt.Errorf("store: pool audit %q: %w", c.obj.name, err)
		}
		if b := unsafe.SliceData(views); b != c.vbase.Load() {
			c.vbase.Store(b)
		}
		n = len(views)
	}
	if int(c.n.Load()) != n+1 {
		c.n.Store(int64(n) + 1)
	}
	// Journal the object's audited mark so recovery knows it had a published
	// report — once a boot, at its first nonempty report: recovery reads only
	// the mark, and idle sweeps must not trickle-fill the log. Journals never
	// block on these (derived state).
	if j := c.obj.st.journal; j != nil && !c.journaled && n > 0 {
		if err := j.Record(JournalRecord[V]{Op: JournalAudit, Name: c.obj.name, Kind: c.obj.kind, Pairs: n}); err != nil {
			return fmt.Errorf("store: pool audit %q: journal: %w", c.obj.name, err)
		}
		c.journaled = true
	}
	return nil
}
