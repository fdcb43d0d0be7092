// Package shard provides the concurrent name-to-object map underlying the
// multi-object store: a power-of-two array of independent buckets with lazy,
// exactly-once object creation. Shard count is fixed at construction, so
// sweeps (audits, metrics) can walk one shard at a time. Lookups take no
// lock and write no shared memory: a lookup is on the path of every store
// operation, and a read-lock's counter is a cache line every core doing
// lookups keeps stealing from every other.
package shard

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// DefaultShards is the shard count selected when NewMap is given 0. It is
// sized for a few dozen cores hammering disjoint names: large enough that
// bucket collisions are rare, small enough that a per-shard sweep touches a
// useful fraction of the map.
const DefaultShards = 64

// MaxShards bounds the shard count (1 Mi buckets is far beyond any sensible
// configuration and keeps the power-of-two rounding overflow-free).
const MaxShards = 1 << 20

// Map is a sharded map from object names to values of type T. All methods
// are safe for concurrent use. The zero value is not usable; construct with
// NewMap.
type Map[T any] struct {
	mask    uint64
	shift   int // log2 of the shard count
	buckets []bucket[T]
}

// bucket is one shard. Creations fill a slot of its table in place, and at
// 3/4 load publish a doubled copy; a lookup that loaded the old table misses
// only names created after it started.
type bucket[T any] struct {
	mu  sync.Mutex // serializes creation, which is what makes it exactly-once
	tab atomic.Pointer[table[T]]
	n   atomic.Int64
}

// table is a power-of-two array of entry slots, probed linearly. Slots only
// go from nil to an entry, so a probe ends at the first empty one. Shards
// start on one shared empty slot that their first creation grows away from.
type table[T any] []atomic.Pointer[entry[T]]

type entry[T any] struct {
	hash uint64 // the name's hash above the shard bits
	name string
	val  T
}

// NewMap returns a map with the given shard count rounded up to a power of
// two. A count of 0 selects DefaultShards.
func NewMap[T any](shards int) (*Map[T], error) {
	if shards == 0 {
		shards = DefaultShards
	}
	if shards < 0 || shards > MaxShards {
		return nil, fmt.Errorf("shard: shard count must be in [1, %d], got %d", MaxShards, shards)
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	m := &Map[T]{mask: uint64(n - 1), shift: bits.TrailingZeros(uint(n)), buckets: make([]bucket[T], n)}
	empty := make(table[T], 1)
	for i := range m.buckets {
		m.buckets[i].tab.Store(&empty)
	}
	return m, nil
}

// Shards returns the shard count (a power of two).
func (m *Map[T]) Shards() int { return len(m.buckets) }

// ShardOf returns the index of the shard holding name.
func (m *Map[T]) ShardOf(name string) int { return int(fnv1a(name) & m.mask) }

// Hash exposes the map's name hash (64-bit FNV-1a) for layers that must
// stripe by object name the same way — persist's WAL append buffers use it
// so there is exactly one hash to keep in sync.
func Hash(name string) uint64 { return fnv1a(name) }

// HashBytes is Hash over a byte slice, for callers that hold an object name
// as bytes inside a larger frame and must not allocate a string to route it
// (the server's shard dispatcher). HashBytes(b) == Hash(string(b)) always.
func HashBytes(b []byte) uint64 { return fnv1a(b) }

// fnv1a is the 64-bit FNV-1a hash of a string or of bytes, neither
// converted; inlined to keep Get allocation-free (hash/fnv would force the
// string through an io.Writer).
func fnv1a[S string | []byte](s S) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Get returns the value stored under name, if any.
func (m *Map[T]) Get(name string) (v T, ok bool) {
	h := fnv1a(name)
	if e, _ := m.buckets[h&m.mask].tab.Load().find(h>>m.shift, name); e != nil {
		v, ok = e.val, true
	}
	return v, ok
}

// find returns the entry of name, whose hash above the shard bits is h, and
// its slot, or nil and the empty slot the probe ended at.
func (t table[T]) find(h uint64, name string) (*entry[T], uint64) {
	mask := uint64(len(t) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if e := t[i].Load(); e == nil || e.hash == h && e.name == name {
			return e, i
		}
	}
}

// GetOrCreate returns the value stored under name, creating it with create
// if absent. Exactly one concurrent caller runs create per name; the others
// observe its result. created reports whether this call ran create. If
// create fails nothing is stored and the error is returned.
//
// create runs while the shard's creations are locked out: it must be quick
// and must not create in this Map.
func (m *Map[T]) GetOrCreate(name string, create func() (T, error)) (v T, created bool, err error) {
	h := fnv1a(name)
	b, h := &m.buckets[h&m.mask], h>>m.shift
	if e, _ := b.tab.Load().find(h, name); e != nil {
		return e.val, false, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.tab.Load()
	e, i := t.find(h, name)
	if e != nil {
		return e.val, false, nil
	}
	if v, err = create(); err != nil {
		var zero T
		return zero, false, err
	}
	if 4*(b.n.Load()+1) > 3*int64(len(*t)) {
		grown := make(table[T], max(8, 2*len(*t)))
		for j := range *t {
			if e := (*t)[j].Load(); e != nil {
				_, k := grown.find(e.hash, e.name)
				grown[k].Store(e)
			}
		}
		b.tab.Store(&grown)
		t = &grown
		_, i = grown.find(h, name)
	}
	(*t)[i].Store(&entry[T]{hash: h, name: name, val: v})
	b.n.Add(1)
	return v, true, nil
}

// Len returns the total number of stored entries.
func (m *Map[T]) Len() int {
	n := 0
	for i := range m.buckets {
		n += int(m.buckets[i].n.Load())
	}
	return n
}

// Range calls f for every entry until f returns false, shard by shard, in
// unspecified order within a shard; entries added concurrently may or may
// not be visited. f runs without any shard lock held, so it may call back
// into the Map.
func (m *Map[T]) Range(f func(name string, v T) bool) {
	for i := range m.buckets {
		if !m.RangeShard(i, f) {
			return
		}
	}
}

// RangeShard calls f for every entry of shard i (in unspecified order — a
// sweep that needs ordering sorts its own output) and reports whether the
// sweep ran to completion (false if f stopped it). Like Range, f runs
// without any lock held.
func (m *Map[T]) RangeShard(i int, f func(name string, v T) bool) bool {
	t := *m.buckets[i].tab.Load()
	for j := range t {
		if e := t[j].Load(); e != nil && !f(e.name, e.val) {
			return false
		}
	}
	return true
}
