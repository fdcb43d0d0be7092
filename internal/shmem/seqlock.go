package shmem

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// SeqlockTriple is an allocation-free TripleReg for word-sized values: the
// four fields live in separate atomic words guarded by a seqlock version.
// Load never blocks on a lock and never allocates; CompareAndSwap and
// FetchXor serialize through a writer mutex and never allocate either —
// unlike PtrTriple, which heap-allocates an immutable Triple per mutation.
//
// Consistency protocol:
//
//   - CompareAndSwap bumps the version to odd, stores the four fields, and
//     bumps it back to even. A Load that overlaps such a window retries.
//   - FetchXor rewrites only the tracking bits. Seq, Val and Nonce are
//     untouched, so any combination a Load can assemble across a FetchXor
//     is a state the register actually held; no version bump is needed, and
//     readers racing a FetchXor never retry.
//
// The trade-off against PtrTriple is progress, not safety: a mutator
// preempted inside its critical section delays other mutators (mutex) and
// loaders (odd version), so the backend is linearizable but not wait-free.
// Its mutation critical sections are a handful of straight-line atomic
// stores, which is why core auto-selects it for uint64 registers on the
// measured hot paths; PtrTriple remains the fully lock-free general backend.
//
// Construct with NewSeqlockTriple; the zero value is not usable.
type SeqlockTriple struct {
	mu    sync.Mutex // serializes CompareAndSwap and FetchXor
	ver   atomic.Uint64
	seq   atomic.Uint64
	val   atomic.Uint64
	nonce atomic.Uint64
	bits  atomic.Uint64
}

var _ TripleReg[uint64] = (*SeqlockTriple)(nil)

// NewSeqlockTriple returns a SeqlockTriple holding init.
func NewSeqlockTriple(init Triple[uint64]) *SeqlockTriple {
	r := &SeqlockTriple{}
	r.seq.Store(init.Seq)
	r.val.Store(init.Val)
	r.nonce.Store(init.Nonce)
	r.bits.Store(init.Bits)
	return r
}

// fields reads the four words one by one; the caller makes the result
// consistent (a stable version around it, or mu).
func (r *SeqlockTriple) fields() Triple[uint64] {
	return Triple[uint64]{Seq: r.seq.Load(), Val: r.val.Load(), Nonce: r.nonce.Load(), Bits: r.bits.Load()}
}

// Load implements TripleReg. It is allocation-free and retries only while a
// CompareAndSwap is mid-flight.
func (r *SeqlockTriple) Load() Triple[uint64] {
	for spin := 0; ; spin++ {
		v1 := r.ver.Load()
		if v1&1 == 0 {
			t := r.fields()
			if r.ver.Load() == v1 {
				return t
			}
		}
		if spin&31 == 31 {
			runtime.Gosched()
		}
	}
}

// CompareAndSwap implements TripleReg.
func (r *SeqlockTriple) CompareAndSwap(old, new Triple[uint64]) bool {
	r.mu.Lock()
	// Under mu the fields are stable: only mutators write them, and all
	// mutators hold mu.
	if r.fields() != old {
		r.mu.Unlock()
		return false
	}
	r.ver.Add(1) // odd: loaders stand back
	r.seq.Store(new.Seq)
	r.val.Store(new.Val)
	r.nonce.Store(new.Nonce)
	r.bits.Store(new.Bits)
	r.ver.Add(1) // even: stable again
	r.mu.Unlock()
	return true
}

// FetchXor implements TripleReg. Only the bits word changes, so no version
// bump is needed; see the type comment.
func (r *SeqlockTriple) FetchXor(mask uint64) Triple[uint64] {
	r.mu.Lock()
	prev := r.fields()
	r.bits.Store(prev.Bits ^ mask)
	r.mu.Unlock()
	return prev
}
