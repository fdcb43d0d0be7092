package unbounded

import (
	"fmt"
	"sync/atomic"
)

// BitTable is the array B[0..∞][0..m-1] of Algorithms 1-3: one m-bit row per
// sequence number, m <= 64. B[s][j] is set (never cleared) when reader j's
// access to the value with sequence number s is copied out of R by a writer.
// Set uses an atomic OR, so concurrent writers copying the same row merge
// their observations, exactly as concurrent B[s][j].write(true) do in the
// paper.
//
// Construct with NewBitTable; the zero value is not usable.
type BitTable struct {
	dir []atomic.Pointer[bitChunk]
}

type bitChunk struct {
	rows [chunkSize]atomic.Uint64
}

// NewBitTable returns a table addressable on rows [0, capacity). A capacity
// of 0 selects DefaultCapacity.
func NewBitTable(capacity int) (*BitTable, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("unbounded: negative capacity %d", capacity)
	}
	return &BitTable{dir: make([]atomic.Pointer[bitChunk], Slots(capacity)/chunkSize)}, nil
}

// Capacity returns the number of addressable rows.
func (t *BitTable) Capacity() uint64 { return uint64(len(t.dir)) * chunkSize }

// Or atomically ORs bits into row s.
func (t *BitTable) Or(s uint64, bits uint64) error {
	if bits == 0 {
		return nil
	}
	c, err := t.chunkFor(s, true)
	if err != nil {
		return err
	}
	c.rows[s&(chunkSize-1)].Or(bits)
	return nil
}

// Set atomically sets bit j of row s, recording that reader j read the value
// with sequence number s.
func (t *BitTable) Set(s uint64, j int) error {
	if j < 0 || j >= 64 {
		return fmt.Errorf("unbounded: bit index %d out of range", j)
	}
	return t.Or(s, uint64(1)<<uint(j))
}

// Row returns the current bits of row s (zero if never written).
func (t *BitTable) Row(s uint64) uint64 {
	c, err := t.chunkFor(s, false)
	if err != nil || c == nil {
		return 0
	}
	return c.rows[s&(chunkSize-1)].Load()
}

func (t *BitTable) chunkFor(s uint64, create bool) (*bitChunk, error) {
	ci := s >> chunkBits
	if ci >= uint64(len(t.dir)) {
		return nil, fmt.Errorf("unbounded: row %d beyond capacity %d", s, t.Capacity())
	}
	if c := t.dir[ci].Load(); c != nil {
		return c, nil
	}
	if !create {
		return nil, nil
	}
	fresh := new(bitChunk)
	if t.dir[ci].CompareAndSwap(nil, fresh) {
		return fresh, nil
	}
	return t.dir[ci].Load(), nil
}
