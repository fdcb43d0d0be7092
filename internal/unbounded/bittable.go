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
	dir directory[[chunkSize]atomic.Uint64]
}

// NewBitTable returns a table addressable on rows [0, capacity). A capacity
// of 0 selects DefaultCapacity.
func NewBitTable(capacity int) (*BitTable, error) {
	dir, err := newDirectory[[chunkSize]atomic.Uint64](capacity)
	if err != nil {
		return nil, err
	}
	return &BitTable{dir: dir}, nil
}

// Capacity returns the number of addressable rows.
func (t *BitTable) Capacity() uint64 { return t.dir.capacity() }

// Or atomically ORs bits into row s.
func (t *BitTable) Or(s uint64, bits uint64) error {
	if bits == 0 {
		return nil
	}
	c, err := t.dir.chunk(s)
	if err != nil {
		return err
	}
	c[s&(chunkSize-1)].Or(bits)
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
func (t *BitTable) Row(s uint64) uint64 { return t.Chunk(s).Row(s) }

// Chunk returns a view of the chunk holding row s: a reader walking up the
// rows looks the chunk up in the directory once, not once per row.
func (t *BitTable) Chunk(s uint64) RowChunk { return RowChunk{t.dir.lookup(s)} }

// RowChunk is one chunk of a BitTable; an absent chunk's rows read zero.
type RowChunk struct{ c *[chunkSize]atomic.Uint64 }

// Row returns the current bits of row s, which must lie in the chunk.
func (c RowChunk) Row(s uint64) uint64 {
	if c.c == nil {
		return 0
	}
	return c.c[s&(chunkSize-1)].Load()
}
