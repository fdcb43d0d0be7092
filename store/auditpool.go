package store

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Pool defaults.
const (
	DefaultPoolWorkers  = 4
	DefaultPoolInterval = 25 * time.Millisecond
)

// AuditPool audits a store's objects asynchronously, in batches: background
// workers sweep the shard map on an interval, each worker owning a disjoint
// set of shards per pass. Every object is audited through its one audit fold
// — the object's persistent auditor handle, which keeps the paper's lsa, so a
// sweep scans only the history suffix written since anyone last audited the
// object; Object.Audit advances the same fold — and the resulting report
// (cumulative, as audits are) is published for lock-free reads via Report
// and Merged.
//
// A published report is some linearized audit of that object, and reports
// only grow. Flush forces a synchronous full pass for callers that need
// every object's fold advanced past all operations that happened before the
// call.
//
// Construct with Store.NewAuditPool; Start/Stop bracket the background
// workers, Flush also works on a pool that was never started (pure batch
// mode). All methods are safe for concurrent use.
type AuditPool[V comparable] struct {
	st       *Store[V]
	workers  int
	interval time.Duration

	stopc   chan struct{}
	stop    sync.Once
	started atomic.Bool
	wg      sync.WaitGroup

	sweeps  atomic.Uint64 // completed per-worker passes over their shards
	audited atomic.Uint64 // incremental per-object audits performed
	errs    atomic.Uint64
	lastErr atomic.Pointer[error]
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
	return &AuditPool[V]{
		st:       st,
		workers:  cfg.workers,
		interval: cfg.interval,
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

// auditOne advances the object's audit fold by one incremental audit, with
// the pool's error and progress accounting; the one code path shared by
// background sweeps and on-demand audits.
func (p *AuditPool[V]) auditOne(obj *Object[V]) error {
	if err := obj.advance(); err != nil {
		p.errs.Add(1)
		e := err // stored by address: a copy here keeps err itself off the heap
		p.lastErr.Store(&e)
		return err
	}
	p.audited.Add(1)
	return nil
}

// sweepShard incrementally audits every object of shard s, returning the
// first error (audits fail only when an object outgrew its history
// capacity).
func (p *AuditPool[V]) sweepShard(s int) error {
	var first error
	p.st.objects.RangeShard(s, func(_ string, obj *Object[V]) bool {
		if err := p.auditOne(obj); err != nil && first == nil {
			first = err
		}
		return true
	})
	return first
}

// Flush synchronously audits every object in the store, advancing each
// object's fold past all operations linearized before the corresponding
// per-object audit, and returns the first error encountered. It may run concurrently
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

// AuditObject synchronously advances the named object's audit fold by one
// incremental audit and returns the freshly published cumulative report. It
// is Object.Audit with the pool's accounting — same fold, same report chain
// as the background sweeps — for callers (the network layer's AUDIT verb)
// that need a report covering everything linearized before the call, without
// paying a full-store Flush.
func (p *AuditPool[V]) AuditObject(name string) (ObjectAudit[V], error) {
	obj, ok := p.st.objects.Get(name)
	if !ok {
		return ObjectAudit[V]{}, fmt.Errorf("store: pool audit %q: %w", name, ErrNotFound)
	}
	if err := p.auditOne(obj); err != nil {
		return ObjectAudit[V]{}, err
	}
	rep, _ := obj.report()
	return rep, nil
}

// Rows is AuditObject for a caller that keeps the cumulative set itself and
// says how far it got — the network layer's AUDIT verb, whose client holds
// the paper's lsa as since: the rows of sequence range [since, rsn], at most
// limit of them, are handed to emit (see core.Auditor.Rows for what a row is
// and what next and more mean). With fresh the object's fold first advances
// by one incremental audit, exactly as a sweep advances it; without, the
// replay is of what the fold last published.
func (p *AuditPool[V]) Rows(name string, fresh bool, since uint64, limit int, emit func(val V, readers uint64)) (kind Kind, next uint64, more bool, err error) {
	obj, ok := p.st.objects.Get(name)
	if !ok {
		return 0, 0, false, fmt.Errorf("store: pool audit %q: %w", name, ErrNotFound)
	}
	if obj.kind == Snapshot {
		return obj.kind, 0, false, fmt.Errorf("store: pool audit %q: %v objects have no audit rows: %w", name, obj.kind, ErrKindMismatch)
	}
	if fresh || obj.cur.n.Load() == 0 {
		if err = p.auditOne(obj); err != nil {
			return obj.kind, 0, false, err
		}
	}
	obj.cur.mu.Lock()
	defer obj.cur.mu.Unlock()
	next, more, err = obj.cur.aud.Rows(since, limit, emit)
	return obj.kind, next, more, err
}

// Report returns the named object's latest published audit, if anyone has
// audited it — the pool, Object.Audit or Store.Audit, which advance one fold:
// a shard-map lookup (lock-free) plus two atomic loads, the published pair
// count and then the list it counts — it never contends with an
// in-progress audit of the object.
func (p *AuditPool[V]) Report(name string) (ObjectAudit[V], bool) {
	obj, ok := p.st.objects.Get(name)
	if !ok {
		return ObjectAudit[V]{}, false
	}
	return obj.report()
}

// Merged returns the latest published audit of every audited object, sorted
// by object name. The reports are the auditors' zero-copy views (see
// auditreg.Report); no audit entries are copied.
func (p *AuditPool[V]) Merged() []ObjectAudit[V] {
	var out []ObjectAudit[V]
	p.st.objects.Range(func(_ string, obj *Object[V]) bool {
		if rep, ok := obj.report(); ok {
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
