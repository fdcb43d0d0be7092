// Package snapshot implements atomic snapshot objects: the classic wait-free
// construction of Afek, Attiya, Dolev, Gafni, Merritt and Shavit ("Atomic
// Snapshots of Shared Memory", J.ACM 1993) as the substrate S, and on top of
// it Algorithm 3 of "Auditing without Leaks Despite Curiosity": an auditable
// snapshot whose effective scans are audited and whose scans/updates are
// uncompromised by scanners.
// Algorithm 3's M holds version numbers, words, so it takes core's seqlock
// trade: linearizable, but a process parked mid-mutation delays the others.
package snapshot

import (
	"fmt"
	"sync/atomic"
)

// Afek is the wait-free n-component single-writer-per-component atomic
// snapshot of Afek et al. Each component register carries, besides the data,
// a sequence number and an embedded view: an updater performs an embedded
// scan and publishes it with its write, so a scanner that sees the same
// component move twice can borrow that embedded view (the "helping" that
// makes scan wait-free after at most n+1 double collects).
//
// Construct with NewAfek. Scan may be called by any number of goroutines;
// component i is written through its Updater handle, by one goroutine at a
// time.
type Afek[V any] struct {
	regs      []atomic.Pointer[afekCell[V]]
	borrows   atomic.Uint64 // scans that took the moved-twice path; read by tests only
	collected func()        // called after each collect; set by tests only
}

type afekCell[V any] struct {
	val  V
	seq  uint64
	view []V
}

// NewAfek returns an n-component snapshot, every component holding initial.
func NewAfek[V any](n int, initial V) (*Afek[V], error) {
	if n < 1 {
		return nil, fmt.Errorf("snapshot: component count must be positive, got %d", n)
	}
	s := &Afek[V]{regs: make([]atomic.Pointer[afekCell[V]], n)}
	initView := make([]V, n)
	for i := range initView {
		initView[i] = initial
	}
	for i := range s.regs {
		s.regs[i].Store(&afekCell[V]{val: initial, seq: 0, view: initView})
	}
	return s, nil
}

// Components returns the number of components n.
func (s *Afek[V]) Components() int { return len(s.regs) }

// Scan returns an atomic view of all components. Any goroutine may call it,
// so it brings its own working memory; a writer scans through its handle.
func (s *Afek[V]) Scan() []V {
	n := len(s.regs)
	out := make([]V, n)
	(&Updater[V]{s: s, cells: make([]*afekCell[V], 2*n), moved: make([]uint8, n)}).ScanInto(out)
	return out
}

func (s *Afek[V]) collect(into []*afekCell[V]) {
	for i := range s.regs {
		into[i] = s.regs[i].Load()
	}
	if s.collected != nil {
		s.collected()
	}
}

// Updater is the single-writer handle for one component. Being
// single-threaded already, it owns the working memory of its scans for its
// lifetime, so that an update allocates only what it publishes.
type Updater[V any] struct {
	s     *Afek[V]
	i     int
	cells []*afekCell[V] // the two collects of the current double collect
	moved []uint8        // how often each component was seen to move
}

// Updater returns the write handle for component i.
func (s *Afek[V]) Updater(i int) (StoreUpdater[V], error) {
	n := len(s.regs)
	if i < 0 || i >= n {
		return nil, fmt.Errorf("snapshot: component %d out of range [0, %d)", i, n)
	}
	return &Updater[V]{s: s, i: i, cells: make([]*afekCell[V], 2*n), moved: make([]uint8, n)}, nil
}

// Update sets the component to v. The embedded scan that enables helping is
// written into a fresh view every time: scanners that borrow it may still be
// copying it out when this handle's next update runs.
func (u *Updater[V]) Update(v V) {
	view := make([]V, len(u.s.regs))
	u.ScanInto(view)
	reg := &u.s.regs[u.i]
	reg.Store(&afekCell[V]{val: v, seq: reg.Load().seq + 1, view: view})
}

// ScanInto writes an atomic view of all components into dst, of length n.
func (u *Updater[V]) ScanInto(dst []V) {
	s, n := u.s, len(u.moved)
	c1, c2 := u.cells[:n], u.cells[n:]
	clear(u.moved)
	s.collect(c1)
	for {
		s.collect(c2)
		clean := true
		for i := range c1 {
			if c1[i].seq == c2[i].seq {
				continue
			}
			clean = false
			if u.moved[i] > 0 {
				// Component i moved twice during this scan: its
				// writer completed a full update — and hence a
				// full embedded scan — inside our interval.
				// Borrow it.
				copy(dst, c2[i].view)
				s.borrows.Add(1)
				return
			}
			u.moved[i]++
		}
		if clean {
			// Clean double collect: the memory was still in between,
			// so the values form an atomic view.
			for i, c := range c2 {
				dst[i] = c.val
			}
			return
		}
		c1, c2 = c2, c1
	}
}
