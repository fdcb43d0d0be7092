// Package maxreg implements max registers: objects whose read returns the
// largest value ever written (Aspnes, Attiya, Censor-Hillel).
//
// It holds only the non-auditable substrate M that Algorithm 2's writers
// share:
//
//   - CASMax: unbounded, lock-free, one atomic pointer + compare&swap; M for
//     non-word values (core keeps a uint64 M in place in a seqlock register);
//   - LockedMax: mutex reference implementation, never selected — tests
//     cross-check CASMax against it.
//
// The auditable max register itself is core.MaxRegister: Algorithm 2 is
// Algorithm 1's R, SN, V, B, read and audit with a different write, so it
// lives on the register's body. This package's tests still drive it, over
// both substrates.
package maxreg

import (
	"sync"
	"sync/atomic"
)

// MaxReg is a (non-auditable) max register over values of type V.
// Implementations must be safe for concurrent use.
type MaxReg[V any] interface {
	// WriteMax raises the register to v if v exceeds the current value.
	WriteMax(v V)
	// Read returns the largest value written so far.
	Read() V
}

// Less is a strict total order on V.
type Less[V any] func(a, b V) bool

// CASMax is an unbounded lock-free max register: an atomic pointer to the
// current maximum, raised with compare&swap. writeMax is lock-free (a failed
// CAS means another writeMax raised the register, so the loop re-checks
// dominance and usually exits); read is wait-free.
//
// Construct with NewCASMax; the zero value is not usable.
type CASMax[V any] struct {
	p    atomic.Pointer[V]
	less Less[V]
}

// NewCASMax returns a CASMax holding initial, ordered by less.
func NewCASMax[V any](initial V, less Less[V]) *CASMax[V] {
	r := &CASMax[V]{less: less}
	r.p.Store(&initial)
	return r
}

var _ MaxReg[int] = (*CASMax[int])(nil)

// WriteMax implements MaxReg.
func (r *CASMax[V]) WriteMax(v V) {
	next := &v
	for {
		cur := r.p.Load()
		if !r.less(*cur, v) {
			return
		}
		if r.p.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Read implements MaxReg.
func (r *CASMax[V]) Read() V { return *r.p.Load() }

// LockedMax is the mutex-protected reference max register.
// Construct with NewLockedMax; the zero value is not usable.
type LockedMax[V any] struct {
	mu   sync.Mutex
	cur  V
	less Less[V]
}

// NewLockedMax returns a LockedMax holding initial, ordered by less.
func NewLockedMax[V any](initial V, less Less[V]) *LockedMax[V] {
	return &LockedMax[V]{cur: initial, less: less}
}

var _ MaxReg[int] = (*LockedMax[int])(nil)

// WriteMax implements MaxReg.
func (r *LockedMax[V]) WriteMax(v V) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.less(r.cur, v) {
		r.cur = v
	}
}

// Read implements MaxReg.
func (r *LockedMax[V]) Read() V {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur
}
