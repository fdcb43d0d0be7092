// Package baseline implements the comparison points the paper argues
// against, plus simple reference designs:
//
//   - Strawman: the "initial design" of Section 3.1 — reader sets stored in
//     plaintext and inserted with a read-then-compare&swap sequence. It is
//     only lock-free, a reader can learn the current value without ever being
//     audited (the crash-simulating attack), and every reader sees who else
//     read the current value. The attacker experiments (internal/attacker)
//     demonstrate all three defects.
//   - Mutex: a coarse-grained lock-based auditable register — trivially
//     correct and leak-free against read-only attackers, but blocking; the
//     price-of-wait-freedom baseline in benchmarks.
//   - Plain: a non-auditable atomic register; the price-of-auditability
//     baseline.
package baseline

import (
	"fmt"
	"sync/atomic"

	"auditreg/internal/core"
	"auditreg/internal/otp"
	"auditreg/internal/unbounded"
)

// Strawman is the Section 3.1 initial design of an auditable register.
// Tracking state is public: the reader set of the current value sits in
// plaintext next to it.
//
// Construct with NewStrawman.
type Strawman[V comparable] struct {
	m     int
	maskM uint64
	p     atomic.Pointer[strawState[V]]
	hist  *unbounded.History[V]
}

type strawState[V comparable] struct {
	seq     uint64
	val     V
	readers uint64 // plaintext reader set — the leak
}

// NewStrawman returns a strawman register for m readers holding initial.
func NewStrawman[V comparable](m int, initial V) (*Strawman[V], error) {
	if m < 1 || m > 64 {
		return nil, fmt.Errorf("baseline: reader count m must be in [1, 64], got %d", m)
	}
	hist, err := unbounded.NewHistory[V](m, 0)
	if err != nil {
		return nil, err
	}
	s := &Strawman[V]{m: m, maskM: otp.MaskBits(m), hist: hist}
	s.p.Store(&strawState[V]{seq: 0, val: initial})
	return s, nil
}

// Read performs the strawman read for reader j: fetch the state, insert j
// into the plaintext reader set with compare&swap, retry on interference.
// Only lock-free. It returns the value read and — because the set is
// plaintext — the reader set the reader observed, which is exactly the
// information Lemma 7 says a leak-free implementation must hide.
func (s *Strawman[V]) Read(j int) (V, uint64) {
	bit := uint64(1) << uint(j)
	for {
		cur := s.p.Load()
		if cur.readers&bit != 0 {
			return cur.val, cur.readers
		}
		next := &strawState[V]{seq: cur.seq, val: cur.val, readers: cur.readers | bit}
		if s.p.CompareAndSwap(cur, next) {
			return cur.val, cur.readers
		}
	}
}

// Peek is the crash-simulating attack of Section 3.1: the reader runs the
// first step of its read code (the load of R), learns the current value, and
// stops. No shared state changes, so no audit can ever report the access.
func (s *Strawman[V]) Peek() V {
	return s.p.Load().val
}

// Write installs a new value, copying the outgoing value and its plaintext
// reader set for auditors.
func (s *Strawman[V]) Write(v V) error {
	for {
		cur := s.p.Load()
		if err := s.hist.Store(cur.seq, cur.val); err != nil {
			return err
		}
		if err := s.hist.Or(cur.seq, cur.readers&s.maskM); err != nil {
			return err
		}
		next := &strawState[V]{seq: cur.seq + 1, val: v}
		if s.p.CompareAndSwap(cur, next) {
			return nil
		}
	}
}

// Audit reports the (reader, value) pairs recorded so far. Unlike
// Algorithm 1 it misses every Peek and every read that stopped before its
// compare&swap landed.
func (s *Strawman[V]) Audit() (core.Report[V], error) {
	cur := s.p.Load()
	var entries []core.Entry[V]
	for q := uint64(0); q < cur.seq; q++ {
		val, ok := s.hist.Load(q)
		if !ok {
			return core.Report[V]{}, fmt.Errorf("baseline: uninitialized history slot %d", q)
		}
		entries = appendRow(entries, s.hist.Row(q)&s.maskM, val)
	}
	entries = appendRow(entries, cur.readers&s.maskM, cur.val)
	return core.NewReport(entries...), nil
}

func appendRow[V comparable](entries []core.Entry[V], row uint64, val V) []core.Entry[V] {
	for j := 0; row != 0; j++ {
		if row&1 != 0 {
			entries = append(entries, core.Entry[V]{Reader: j, Value: val})
		}
		row >>= 1
	}
	return entries
}
