// Package store hosts many named auditable objects behind one facade: a
// sharded multi-object store for the registers, max registers, and snapshots
// of package auditreg, plus a batched asynchronous audit pipeline over them.
//
// The per-object algorithms (auditreg, internal/core, ...) solve auditing for
// one shared object; a service absorbing real traffic hosts thousands. The
// store maps object names to lazily created objects through a power-of-two
// shard map (internal/shard), so opens and lookups contend only within one
// shard, and derives each object's one-time-pad key from a single store
// master key and the object's name — operators keep one secret, objects keep
// independent pad streams.
//
// # Objects and handles
//
//	st, _ := store.New[uint64](key, store.WithReaders(8))
//	obj, _ := st.Open("acct/42", store.Register)
//	_ = obj.Write(7)
//	v, _ := obj.Read(3)        // reader index 3 reads 7
//	rep, _ := st.Audit("acct/42")
//
// Reader indices name principals, exactly as in the underlying algorithms:
// reader j of object o is one logical process. The store keeps one persistent
// read handle per (object, reader) — guarded by a mutex, so calls may come
// from any goroutine — which preserves the at-most-one-fetch&xor-per-write
// invariant that the leak-freedom proofs need. Writer handles are pooled and
// never shared concurrently.
//
// # Auditing
//
// Each object keeps one audit fold: a persistent auditor handle, made at the
// object's first audit, whose cursor is the paper's lsa, so an audit scans
// only the history written since anyone last audited the object. Store.Audit
// (and Object.Audit) advances it synchronously and returns the exact current
// audit set. AuditPool advances the same folds in the background: workers
// sweep the shards on an interval, with each object's latest report
// published for lock-free reads and a merged, zero-copy view across all
// objects.
package store

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync/atomic"

	"auditreg"
	"auditreg/internal/shard"
)

// Kind identifies the auditable object type hosted under a name.
type Kind uint8

const (
	// Register is the auditable multi-writer multi-reader register
	// (Algorithm 1): Write overwrites, Read returns the latest value.
	Register Kind = iota + 1
	// MaxRegister is the auditable max register (Algorithm 2): Write is a
	// writeMax, Read returns the largest value written.
	MaxRegister
	// Snapshot is the auditable atomic snapshot (Algorithm 3): UpdateAt
	// sets one component, Scan returns an atomic view of all of them.
	Snapshot
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case Register:
		return "register"
	case MaxRegister:
		return "maxregister"
	case Snapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Default sizing. Objects default to a short audit history (DefaultCapacity
// writes) so that hosting thousands of them stays cheap; raise per store or
// per object when single objects live long.
const (
	DefaultReaders    = 16
	DefaultComponents = 4
	DefaultCapacity   = 1 << 16
)

// Sentinel errors returned by store operations. Errors are wrapped; test
// with errors.Is.
var (
	// ErrNotFound reports an operation on a name that was never opened.
	ErrNotFound = errors.New("store: object not found")
	// ErrKindMismatch reports an Open or operation whose kind disagrees
	// with the object's.
	ErrKindMismatch = errors.New("store: object kind mismatch")
	// ErrNotJournaled reports an Open of an object kind a journaled store
	// cannot make durable (Snapshot scans have no replayable fetch record).
	ErrNotJournaled = errors.New("store: object kind cannot be journaled")
	// ErrCapacity reports a write past the end of an object's audit
	// history (see WithCapacity); nothing a read or an audit sees changed.
	ErrCapacity = auditreg.ErrCapacity
)

// Store hosts named auditable objects of value type V. All methods are safe
// for concurrent use. Construct with New.
type Store[V comparable] struct {
	key        auditreg.Key
	readers    int
	capacity   int
	components int
	less       auditreg.Less[V]
	initial    V
	nonces     func(id uint64) auditreg.NonceSource
	journal    Journal[V]

	objects *shard.Map[*Object[V]]
	nonceID atomic.Uint64 // store-unique ids for created nonce sources
}

// Option configures a Store.
type Option[V comparable] func(*Store[V]) error

// WithReaders sets the reader count m of every hosted object (default
// DefaultReaders, at most auditreg.MaxReaders).
func WithReaders[V comparable](m int) Option[V] {
	return func(st *Store[V]) error {
		if m < 1 || m > auditreg.MaxReaders {
			return fmt.Errorf("store: readers must be in [1, %d], got %d", auditreg.MaxReaders, m)
		}
		st.readers = m
		return nil
	}
}

// WithShards sets the shard count of the name map (rounded up to a power of
// two; default shard.DefaultShards).
func WithShards[V comparable](n int) Option[V] {
	return func(st *Store[V]) error {
		m, err := shard.NewMap[*Object[V]](n)
		if err != nil {
			return err
		}
		st.objects = m
		return nil
	}
}

// WithLess sets the ordering used by MaxRegister objects. Opening a
// MaxRegister without it is an error.
func WithLess[V comparable](less auditreg.Less[V]) Option[V] {
	return func(st *Store[V]) error {
		st.less = less
		return nil
	}
}

// WithInitial sets the initial value of every object (default: zero V).
func WithInitial[V comparable](v V) Option[V] {
	return func(st *Store[V]) error {
		st.initial = v
		return nil
	}
}

// WithCapacity sets the default audit-history capacity per object (default
// DefaultCapacity), rounded up to a multiple of 1,024: an object takes that
// many writes (a Snapshot, updates). The next is refused with ErrCapacity;
// reads and audits carry on over the history the object holds. The capacity
// is a bound, not a reservation: an object's history allocates as its rows
// are written, a 512-row block first, whatever the capacity.
func WithCapacity[V comparable](n int) Option[V] {
	return func(st *Store[V]) error {
		if n < 1 {
			return fmt.Errorf("store: capacity must be positive, got %d", n)
		}
		st.capacity = n
		return nil
	}
}

// WithComponents sets the default component count of Snapshot objects
// (default DefaultComponents).
func WithComponents[V comparable](n int) Option[V] {
	return func(st *Store[V]) error {
		if n < 1 {
			return fmt.Errorf("store: components must be positive, got %d", n)
		}
		st.components = n
		return nil
	}
}

// WithNonces sets the factory for the nonce sources of max-register and
// snapshot writers (default: crypto randomness). The store calls f with an
// id that is unique across all sources it ever creates; implementations
// must return a distinct nonce stream per id — an 8-bit owner tag alone is
// not enough, since a busy store creates far more than 256 sources.
// Deterministic tests fold the id into the seed, e.g.
//
//	store.WithNonces[uint64](func(id uint64) auditreg.NonceSource {
//		return auditreg.NewSeededNonces(baseSeed+id, uint8(id))
//	})
func WithNonces[V comparable](f func(id uint64) auditreg.NonceSource) Option[V] {
	return func(st *Store[V]) error {
		if f == nil {
			return fmt.Errorf("store: nonce factory must not be nil")
		}
		st.nonces = f
		return nil
	}
}

// New returns an empty store whose objects derive their pad secrets from
// key. The key is the writers'/auditors' secret of every hosted object:
// never hand it, or the store, to reading principals.
func New[V comparable](key auditreg.Key, opts ...Option[V]) (*Store[V], error) {
	st := &Store[V]{
		key:        key,
		readers:    DefaultReaders,
		capacity:   DefaultCapacity,
		components: DefaultComponents,
		nonces:     func(id uint64) auditreg.NonceSource { return auditreg.NewCryptoNonces(uint8(id)) },
	}
	for _, opt := range opts {
		if err := opt(st); err != nil {
			return nil, err
		}
	}
	if st.objects == nil {
		m, err := shard.NewMap[*Object[V]](0)
		if err != nil {
			return nil, err
		}
		st.objects = m
	}
	return st, nil
}

// objectKey derives the pad key of the named object: SHA-256 over a domain
// tag, the master key, and the name. Distinct names yield independent pad
// streams; no per-object secret needs distributing.
func (st *Store[V]) objectKey(name string) auditreg.Key {
	h := sha256.New()
	h.Write([]byte("auditreg/store/object-pads/v1\x00"))
	k := st.key
	h.Write(k[:])
	h.Write([]byte(name))
	var out auditreg.Key
	h.Sum(out[:0])
	return out
}

// OpenOption configures one Open call.
type OpenOption func(*openConfig)

type openConfig struct {
	capacity   int
	components int
}

// WithObjectCapacity overrides the store's default audit-history capacity
// for this object.
func WithObjectCapacity(n int) OpenOption {
	return func(c *openConfig) { c.capacity = n }
}

// WithObjectComponents overrides the store's default component count for
// this Snapshot object.
func WithObjectComponents(n int) OpenOption {
	return func(c *openConfig) { c.components = n }
}

// Open returns the object stored under name, creating it with the given
// kind if absent. Creation is lazy and exactly-once: concurrent opens of one
// name agree on a single object. Opening an existing name with a different
// kind fails with ErrKindMismatch; OpenOptions apply only to the call that
// creates the object.
func (st *Store[V]) Open(name string, kind Kind, opts ...OpenOption) (*Object[V], error) {
	if name == "" {
		return nil, fmt.Errorf("store: object name must not be empty")
	}
	cfg := openConfig{capacity: st.capacity, components: st.components}
	for _, opt := range opts {
		opt(&cfg)
	}
	obj, created, err := st.objects.GetOrCreate(name, func() (*Object[V], error) {
		return st.newObject(name, kind, cfg)
	})
	if err != nil {
		return nil, err
	}
	if obj.kind != kind {
		return nil, fmt.Errorf("store: open %q as %v: object is a %v: %w", name, kind, obj.kind, ErrKindMismatch)
	}
	// The creator journals the creation after the shard lock is released
	// (the journal may block on an fsync; GetOrCreate's create callback
	// must stay quick). Recovery does not rely on the open record leading
	// the object's mutation records — it is order-independent and
	// synthesizes a missing open from any mutation's kind — so a
	// concurrent Lookup+mutate slipping in front is harmless.
	if created && st.journal != nil {
		if err := st.journal.Record(JournalRecord[V]{Op: JournalOpen, Name: name, Kind: kind, Capacity: cfg.capacity}); err != nil {
			return nil, fmt.Errorf("store: open %q: journal: %w", name, err)
		}
	}
	return obj, nil
}

// Lookup returns the object stored under name, if any.
func (st *Store[V]) Lookup(name string) (*Object[V], bool) {
	return st.objects.Get(name)
}

// Len returns the number of hosted objects.
func (st *Store[V]) Len() int { return st.objects.Len() }

// Readers returns the reader count m of every hosted object.
func (st *Store[V]) Readers() int { return st.readers }

// Range calls f for every hosted object until f returns false, shard by
// shard, in unspecified order within a shard.
func (st *Store[V]) Range(f func(*Object[V]) bool) {
	st.objects.Range(func(_ string, obj *Object[V]) bool { return f(obj) })
}

// Write writes v to the named object: an overwrite for a Register, a
// writeMax for a MaxRegister. Snapshot objects take component writes through
// Object.UpdateAt instead.
func (st *Store[V]) Write(name string, v V) error {
	obj, ok := st.objects.Get(name)
	if !ok {
		return fmt.Errorf("store: write %q: %w", name, ErrNotFound)
	}
	return obj.Write(v)
}

// Read returns the named object's current value as seen by the given reader
// index. Snapshot objects are read through Object.Scan instead.
func (st *Store[V]) Read(name string, reader int) (V, error) {
	obj, ok := st.objects.Get(name)
	if !ok {
		var zero V
		return zero, fmt.Errorf("store: read %q: %w", name, ErrNotFound)
	}
	return obj.Read(reader)
}

// Audit synchronously audits the named object and returns the exact current
// audit set: Object.Audit, which advances the object's one audit fold — the
// fold an AuditPool sweeps — by the rows written since it was last audited.
func (st *Store[V]) Audit(name string) (ObjectAudit[V], error) {
	obj, ok := st.objects.Get(name)
	if !ok {
		return ObjectAudit[V]{}, fmt.Errorf("store: audit %q: %w", name, ErrNotFound)
	}
	return obj.Audit()
}
