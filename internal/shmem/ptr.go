package shmem

import "sync/atomic"

// PtrTriple is the lock-free TripleReg backend for values wider than a word
// (core selects it for every value type but uint64): an atomic pointer to an
// immutable Triple, one heap allocation per mutation. CompareAndSwap compares triple values (not pointers),
// so it is immune to pointer-identity ABA: a swap succeeds exactly when the
// register's current content equals old at the instant of the underlying
// pointer CAS.
//
// Construct with NewPtrTriple; the zero value is not usable.
type PtrTriple[V comparable] struct {
	p atomic.Pointer[Triple[V]]
}

var _ TripleReg[int] = (*PtrTriple[int])(nil)

// NewPtrTriple returns a PtrTriple holding init.
func NewPtrTriple[V comparable](init Triple[V]) *PtrTriple[V] {
	r := &PtrTriple[V]{}
	r.p.Store(&init)
	return r
}

// Load implements TripleReg.
func (r *PtrTriple[V]) Load() Triple[V] { return *r.p.Load() }

// CompareAndSwap implements TripleReg.
func (r *PtrTriple[V]) CompareAndSwap(old, new Triple[V]) bool {
	next := &new
	for {
		cur := r.p.Load()
		if *cur != old {
			return false
		}
		if r.p.CompareAndSwap(cur, next) {
			return true
		}
		// The pointer moved under us; if the new content still equals
		// old the swap must still be allowed to succeed, so retry.
	}
}

// FetchXor implements TripleReg.
func (r *PtrTriple[V]) FetchXor(mask uint64) Triple[V] {
	for {
		cur := r.p.Load()
		next := *cur
		next.Bits ^= mask
		if r.p.CompareAndSwap(cur, &next) {
			return *cur
		}
	}
}
