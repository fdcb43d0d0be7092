package snapshot

import (
	"fmt"
	"sync"
)

// Locked is the mutex-protected reference snapshot, trivially atomic. It
// cross-checks Afek in tests and serves as an injectable substrate for the
// auditable snapshot.
type Locked[V any] struct {
	mu    sync.Mutex
	state []V
}

// NewLocked returns an n-component locked snapshot holding initial.
func NewLocked[V any](n int, initial V) (*Locked[V], error) {
	if n < 1 {
		return nil, fmt.Errorf("snapshot: component count must be positive, got %d", n)
	}
	state := make([]V, n)
	for i := range state {
		state[i] = initial
	}
	return &Locked[V]{state: state}, nil
}

// Components returns the number of components n.
func (s *Locked[V]) Components() int { return len(s.state) }

// Scan returns an atomic view of all components.
func (s *Locked[V]) Scan() []V {
	out := make([]V, len(s.state))
	(&LockedUpdater[V]{s: s}).ScanInto(out)
	return out
}

// LockedUpdater is the write handle for one component of a Locked snapshot.
type LockedUpdater[V any] struct {
	s *Locked[V]
	i int
}

// Updater returns the write handle for component i.
func (s *Locked[V]) Updater(i int) (StoreUpdater[V], error) {
	if i < 0 || i >= len(s.state) {
		return nil, fmt.Errorf("snapshot: component %d out of range [0, %d)", i, len(s.state))
	}
	return &LockedUpdater[V]{s: s, i: i}, nil
}

// Update sets the component to v.
func (u *LockedUpdater[V]) Update(v V) {
	u.s.mu.Lock()
	defer u.s.mu.Unlock()
	u.s.state[u.i] = v
}

// ScanInto writes an atomic view of all components into dst, of length n.
func (u *LockedUpdater[V]) ScanInto(dst []V) {
	u.s.mu.Lock()
	defer u.s.mu.Unlock()
	copy(dst, u.s.state)
}
