// Package unbounded provides the "infinite" history of Algorithms 1-3: the
// array V[0..∞] of past values and the bit table B[0..∞][0..m-1] of their
// decrypted reader sets, kept side by side in one History. A row s is the
// pair (V[s], B[s]). Rows live in lazily allocated blocks of 1,024 behind a
// fixed directory of atomically installed pointers, with lock-free reads and
// writes. Capacity is bounded by the directory size (16 Mi rows by default),
// standing in for the paper's truly infinite arrays; every row below the
// current sequence number is written before R's sequence number advances
// past it, so readers always find initialized rows.
//
// A block is one allocation. For uint64 values it is a run of words: 16
// words of presence bits, 1,024 inline values, then the reader rows packed
// at width w — the smallest power of two >= m — so 64/w rows share a word.
// With m = 16 a block is 10,368 bytes (Go's 10,880-byte size class) where
// separate V and B chunks took 17,664. Rows of m >= 33 readers take a word
// each, and such a block lands in the 18,432-byte class: 768 bytes more than
// the two chunks. Any other value type is boxed behind a per-row pointer in
// a fixed-size block whose rows have room for 64 readers.
//
// Packed rows are still distinct base objects of the paper: each row owns a
// disjoint lane of its word, set only by atomic OR and read by one load, so
// no write to one row can change another's bits.
package unbounded

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

const (
	blockBits    = 10
	blockRows    = 1 << blockBits // rows per block
	presentWords = blockRows / 64 // a block's presence bitmap, in words
)

// DefaultCapacity is the default maximum row index plus one.
const DefaultCapacity = 1 << 24

// ErrCapacity reports a write past the last row a history can hold. The
// history itself is intact: every row below its capacity stays readable and
// auditable. Errors are wrapped; test with errors.Is.
var ErrCapacity = errors.New("history capacity exceeded")

// Slots returns how many rows a history built with the given capacity
// addresses: the capacity, DefaultCapacity for 0, rounded up to whole blocks.
func Slots(capacity int) int {
	if capacity == 0 {
		capacity = DefaultCapacity
	}
	return (capacity + blockRows - 1) &^ (blockRows - 1)
}

// History is the pair of audit arrays V and B of Algorithms 1-3 for m
// readers. V[s] follows the register semantics of the paper: concurrent
// stores to one row always carry the same value (established by Lemma 18),
// so last-writer-wins is indistinguishable from write-once; a presence bit
// tells a stored zero from a row never written. Value and bit need no joint
// atomicity: a reader that sees the bit sees some writer's store of the one
// value the row can hold. B[s] is set by atomic OR and never cleared, so
// concurrent writers copying the same row merge their observations, exactly
// as concurrent B[s][j].write(true) do in the paper.
//
// Construct with NewHistory; the zero value is not usable.
type History[V any] struct {
	dir   []atomic.Pointer[uint64] // each block's first word, installed on first use
	words int                      // a block's length in words
	rows  int                      // word offset of a block's reader rows
	shift uint                     // log2 of the row width w
	mask  uint64                   // the bits of one row: w ones
	boxed bool                     // V is not a uint64: values are boxed
}

// boxedBlock is a block for a value type other than uint64: presence bits
// and rows of any width up to 64 in words, then the boxed values.
type boxedBlock[V any] struct {
	words [presentWords + blockRows]uint64
	vals  [blockRows]atomic.Pointer[V]
}

// NewHistory returns a history for m readers (1 <= m <= 64) addressable on
// rows [0, capacity). A capacity of 0 selects DefaultCapacity.
func NewHistory[V any](m, capacity int) (*History[V], error) {
	if m < 1 || m > 64 {
		return nil, fmt.Errorf("unbounded: reader count %d outside [1, 64]", m)
	}
	if capacity < 0 {
		return nil, fmt.Errorf("unbounded: negative capacity %d", capacity)
	}
	h := &History[V]{
		dir:   make([]atomic.Pointer[uint64], Slots(capacity)/blockRows),
		rows:  presentWords + blockRows, // after the inline values
		shift: uint(bits.Len(uint(m - 1))),
	}
	h.mask = ^uint64(0) >> (64 - 1<<h.shift)
	if _, inline := any(*new(V)).(uint64); !inline {
		h.rows, h.boxed = presentWords, true
	}
	h.words = h.rows + blockRows>>(6-h.shift)
	return h, nil
}

// Capacity returns the number of addressable rows.
func (h *History[V]) Capacity() uint64 { return uint64(len(h.dir)) * blockRows }

// Room returns nil when row s is addressable, and otherwise the error
// wrapping ErrCapacity that a Store or Or to s returns.
func (h *History[V]) Room(s uint64) error {
	if s>>blockBits < uint64(len(h.dir)) {
		return nil
	}
	return fmt.Errorf("unbounded: row %d beyond capacity %d: %w", s, h.Capacity(), ErrCapacity)
}

// block returns the words of the block holding row s, allocating the block
// on first use.
func (h *History[V]) block(s uint64) ([]uint64, error) {
	bi := s >> blockBits
	if bi >= uint64(len(h.dir)) {
		return nil, h.Room(s)
	}
	p := h.dir[bi].Load()
	if p == nil {
		var fresh *uint64
		if h.boxed {
			fresh = &new(boxedBlock[V]).words[0]
		} else {
			fresh = &make([]uint64, h.words)[0]
		}
		h.dir[bi].CompareAndSwap(nil, fresh)
		p = h.dir[bi].Load()
	}
	return unsafe.Slice(p, h.words), nil
}

// Store atomically publishes v as V[s]. It returns an error wrapping
// ErrCapacity only when s is beyond the history's capacity. Once the block
// exists, a uint64 store allocates nothing.
func (h *History[V]) Store(s uint64, v V) error {
	words, err := h.block(s)
	if err != nil {
		return err
	}
	o := s & (blockRows - 1)
	if h.boxed {
		box := new(V) // v itself stays off the heap for the word path
		*box = v
		(*boxedBlock[V])(unsafe.Pointer(&words[0])).vals[o].Store(box)
	} else {
		atomic.StoreUint64(&words[presentWords+o], *(*uint64)(unsafe.Pointer(&v))) // V is uint64
	}
	atomic.OrUint64(&words[o>>6], 1<<(o&63))
	return nil
}

// Or atomically ORs readers into B[s]. Bit j is reader j; bits at or past the
// row width are refused. ORing nothing is a no-op, whatever s is.
func (h *History[V]) Or(s uint64, readers uint64) error {
	if readers == 0 {
		return nil
	}
	if readers&^h.mask != 0 {
		return fmt.Errorf("unbounded: reader bits %#x wider than a %d-bit row", readers, 1<<h.shift)
	}
	words, err := h.block(s)
	if err != nil {
		return err
	}
	lane := (s & (blockRows - 1)) << h.shift
	atomic.OrUint64(&words[h.rows+int(lane>>6)], readers<<(lane&63))
	return nil
}

// Load returns V[s] and whether row s has been written.
func (h *History[V]) Load(s uint64) (V, bool) { return h.Block(s).Load(s) }

// Row returns B[s], zero if never written.
func (h *History[V]) Row(s uint64) uint64 { return h.Block(s).Row(s) }

// Block returns a view of the block holding row s: a reader walking up the
// rows looks the block up in the directory once, not once per row, and finds
// V[s] and B[s] in it together.
func (h *History[V]) Block(s uint64) Block[V] {
	var p *uint64
	if bi := s >> blockBits; bi < uint64(len(h.dir)) {
		p = h.dir[bi].Load()
	}
	if p == nil {
		return Block[V]{}
	}
	b := Block[V]{words: unsafe.Slice(p, h.words), rows: h.rows, shift: h.shift, mask: h.mask}
	if h.boxed {
		b.boxes = &(*boxedBlock[V])(unsafe.Pointer(p)).vals // p is a boxedBlock's first word
	}
	return b
}

// Block is one block of a History; an absent block's rows read unwritten.
// Its accessors inline into a row loop even in a generic body instantiated
// in another package, which sees only generic code and sync/atomic's
// functions (atomic.Uint64's methods would stay calls): so a block's words
// are plain uint64s, touched only through those functions.
type Block[V any] struct {
	words []uint64                      // presence bits, inline values, packed rows; nil if absent
	boxes *[blockRows]atomic.Pointer[V] // values, when V is not a uint64
	rows  int                           // word offset of the rows
	shift uint                          // log2 of the row width w
	mask  uint64                        // the bits of one row
}

// End returns the first row past the block holding s: the rows a view taken
// at s reads are [s, End(s)).
func (Block[V]) End(s uint64) uint64 { return (s | (blockRows - 1)) + 1 }

// Load returns V[s], s in the block, and whether row s has been written.
func (b Block[V]) Load(s uint64) (v V, ok bool) {
	o := s & (blockRows - 1)
	if b.words == nil || atomic.LoadUint64(&b.words[o>>6])&(1<<(o&63)) == 0 {
		return v, false
	}
	if b.boxes != nil {
		return *b.boxes[o].Load(), true
	}
	w := atomic.LoadUint64(&b.words[presentWords+o])
	return *(*V)(unsafe.Pointer(&w)), true // V is uint64
}

// Row returns B[s], s in the block: its lane of the word it shares.
func (b Block[V]) Row(s uint64) uint64 {
	if b.words == nil {
		return 0
	}
	lane := (s & (blockRows - 1)) << b.shift
	return atomic.LoadUint64(&b.words[b.rows+int(lane>>6)]) >> (lane & 63) & b.mask
}
