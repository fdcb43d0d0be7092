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
	buckets []bucket[T]
}

type bucket[T any] struct {
	mu sync.Mutex // serializes creation, which is what makes it exactly-once
	m  sync.Map   // name -> T
	n  atomic.Int64
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
	return &Map[T]{mask: uint64(n - 1), buckets: make([]bucket[T], n)}, nil
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
func HashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

// fnv1a is the 64-bit FNV-1a hash; inlined to keep Get allocation-free
// (hash/fnv would force the string through an io.Writer).
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Get returns the value stored under name, if any.
func (m *Map[T]) Get(name string) (T, bool) {
	v, ok := m.buckets[m.ShardOf(name)].m.Load(name)
	if !ok {
		var zero T
		return zero, false
	}
	return v.(T), true
}

// GetOrCreate returns the value stored under name, creating it with create
// if absent. Exactly one concurrent caller runs create per name; the others
// observe its result. created reports whether this call ran create. If
// create fails nothing is stored and the error is returned.
//
// create runs while the shard's creations are locked out: it must be quick
// and must not create in this Map.
func (m *Map[T]) GetOrCreate(name string, create func() (T, error)) (v T, created bool, err error) {
	if v, ok := m.Get(name); ok {
		return v, false, nil
	}
	b := &m.buckets[m.ShardOf(name)]
	b.mu.Lock()
	defer b.mu.Unlock()
	if v, ok := m.Get(name); ok {
		return v, false, nil
	}
	if v, err = create(); err != nil {
		var zero T
		return zero, false, err
	}
	b.m.Store(name, v)
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
	done := true
	m.buckets[i].m.Range(func(name, v any) bool {
		done = f(name.(string), v.(T))
		return done
	})
	return done
}
