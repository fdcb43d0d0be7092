// Package unbounded provides the "infinite" arrays of Algorithms 1-3: the
// array V[0..∞] of past values and the bit table B[0..∞][0..m-1] of their
// decrypted reader sets, kept side by side in one History, and Algorithm 3's
// views by version number, kept in a Log. A row s of a history is the pair
// (V[s], B[s]); a row of a log is one atomically published pointer.
//
// Both cost the rows they hold. Rows live in lazily allocated blocks: blocks
// 0 and 1 hold 512 rows each, and every later block 1,024 rows aligned at a
// multiple of 1,024. A directory of atomically installed block pointers finds
// a row's block, with lock-free reads and writes. Its first page, held in the
// History or Log itself, covers rows [0, 65,536); page k >= 1 covers rows
// [65,536·2^(k-1), 65,536·2^k) and is allocated when one of them is first
// reached. Creating a history or a log allocates nothing that grows with its
// capacity, which only bounds the rows it may take (16 Mi by default),
// standing in for the paper's truly infinite arrays. Every row below a
// history's current sequence number is written before R's sequence number
// advances past it, so readers always find initialized rows.
//
// A history's block is one allocation. For uint64 values it is a run of
// words: 16 words of presence bits, the inline values, then the reader rows
// packed at width w — the smallest power of two >= m — so 64/w rows share a
// word. With m = 16 a full block is 10,368 bytes (Go's 10,880-byte size
// class) and a half block 5,248 (the 5,376-byte class). Rows of m >= 33
// readers take a word each, and a full block lands in the 18,432-byte class.
// Any other value type is boxed behind a per-row pointer in a block whose
// rows have room for 64 readers.
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
	blockRows    = 1 << blockBits // rows of a block from row 1,024 on
	halfRows     = blockRows / 2  // rows of blocks 0 and 1
	presentWords = blockRows / 64 // a block's presence bitmap, in words
	pageBits     = 16
	firstRows    = 1 << pageBits         // rows the directory's first page covers
	pageBlocks   = firstRows / blockRows // full blocks of rows [0, firstRows)
)

// DefaultCapacity is the default maximum row index plus one.
const DefaultCapacity = 1 << 24

// ErrCapacity reports a write past the last row a history can hold. The
// history itself is intact: every row below its capacity stays readable and
// auditable. Errors are wrapped; test with errors.Is.
var ErrCapacity = errors.New("history capacity exceeded")

// Slots returns how many rows a history or a log built with the given
// capacity addresses: the capacity, DefaultCapacity for 0, rounded up to a
// multiple of 1,024.
func Slots(capacity int) int {
	if capacity == 0 {
		capacity = DefaultCapacity
	}
	return (capacity + blockRows - 1) &^ (blockRows - 1)
}

// lastRow returns the offset of the last row in the block holding row s.
func lastRow(s uint64) uint64 {
	if s < blockRows {
		return halfRows - 1
	}
	return blockRows - 1
}

// dir is the directory of a history or a log: a pointer to each block's
// first element B, installed on first use. Row s is in block
// s>>10 + min(s>>9, 1). Page 0 is first: blocks 0 to 64, rows [0, 65,536).
// Page k >= 1 holds the 32·2^k blocks of rows [65,536·2^(k-1), 65,536·2^k),
// block b in slot b - 32·2^k; its slot 0 stays unused, so that one
// expression finds a block's slot in every page. Like Block, dir is generic
// so that slot inlines into a row loop in another package's generic body.
type dir[B any] struct {
	first [pageBlocks + 1]unsafe.Pointer
	pages []unsafe.Pointer // each page's first slot; pages[0] is &first[0]
	rows  uint64           // the capacity: rows [0, rows) are addressable
}

// init sizes d for capacity rows. d must not move afterwards.
func (d *dir[B]) init(capacity int) {
	d.rows = uint64(Slots(capacity))
	d.pages = make([]unsafe.Pointer, 1+bits.Len64((d.rows-1)>>pageBits))
	d.pages[0] = unsafe.Pointer(&d.first)
}

// absent is the slot of every block in an absent page: it stays nil, and
// History.Block loads through it with no branch of its own.
var absent unsafe.Pointer

// slot returns the directory slot of the block holding row s, &absent if the
// page that would hold it is absent.
func (d *dir[B]) slot(s uint64) *unsafe.Pointer {
	if k := bits.Len64(s >> pageBits); k < len(d.pages) {
		if page := atomic.LoadPointer(&d.pages[k]); page != nil {
			// Row s is in block s>>10 + min(s>>9, 1).
			return (*unsafe.Pointer)(unsafe.Add(page, (s>>blockBits+min(s>>(blockBits-1), 1)-pageBlocks/2<<k&^(pageBlocks-1))*8))
		}
	}
	return &absent
}

// block returns the first word of the block holding row s, installing the
// block fresh makes if there is none, or nil if s is beyond the capacity.
func (d *dir[B]) block(s uint64, fresh func() *B) *B {
	if s >= d.rows {
		return nil
	}
	slot := d.slot(s)
	if slot == &absent {
		k := bits.Len64(s >> pageBits)
		atomic.CompareAndSwapPointer(&d.pages[k], nil, unsafe.Pointer(&make([]unsafe.Pointer, pageBlocks/2<<k+1)[0]))
		slot = d.slot(s)
	}
	if p := atomic.LoadPointer(slot); p != nil {
		return (*B)(p)
	}
	atomic.CompareAndSwapPointer(slot, nil, unsafe.Pointer(fresh()))
	return (*B)(atomic.LoadPointer(slot))
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
	dir    dir[uint64]
	layout [2]Block[V] // a half and a full block, without their memory
}

// boxedBlock and halfBoxed are the blocks for a value type other than
// uint64: presence bits and rows of any width up to 64 in words, then the
// boxed values.
type boxedBlock[V any] struct {
	words [presentWords + blockRows]uint64
	vals  [blockRows]atomic.Pointer[V]
}

type halfBoxed[V any] struct {
	words [presentWords + halfRows]uint64
	vals  [halfRows]atomic.Pointer[V]
}

// NewHistory returns a history for m readers (1 <= m <= 64) addressable on
// rows [0, capacity). A capacity of 0 selects DefaultCapacity. It allocates
// no block: the first write to a block does.
func NewHistory[V any](m, capacity int) (*History[V], error) {
	if m < 1 || m > 64 {
		return nil, fmt.Errorf("unbounded: reader count %d outside [1, 64]", m)
	}
	if capacity < 0 {
		return nil, fmt.Errorf("unbounded: negative capacity %d", capacity)
	}
	h := new(History[V])
	h.dir.init(capacity)
	_, inline := any(*new(V)).(uint64)
	shift := uint(bits.Len(uint(m - 1)))
	for i, last := range []uint64{halfRows - 1, blockRows - 1} {
		// Presence bits, inline values, rows; boxed, presence bits, rows,
		// and the boxes after the room kept for rows 64 readers wide.
		h.layout[i] = Block[V]{vals: presentWords, rows: presentWords + last + 1,
			shift: shift, mask: ^uint64(0) >> (64 - 1<<shift), last: last}
		if !inline {
			h.layout[i].vals, h.layout[i].rows, h.layout[i].boxed = presentWords+last+1, presentWords, true
		}
	}
	return h, nil
}

// Capacity returns the number of addressable rows.
func (h *History[V]) Capacity() uint64 { return h.dir.rows }

// Room returns nil when row s is addressable, and otherwise the error
// wrapping ErrCapacity that a Store or Or to s returns.
func (h *History[V]) Room(s uint64) error {
	if s < h.dir.rows {
		return nil
	}
	return fmt.Errorf("unbounded: row %d beyond capacity %d: %w", s, h.dir.rows, ErrCapacity)
}

// block returns the words of the block holding row s, allocating the block
// on first use, and its layout.
func (h *History[V]) block(s uint64) ([]uint64, *Block[V], error) {
	b := &h.layout[min(s>>blockBits, 1)]
	p := h.dir.block(s, func() *uint64 {
		switch {
		case !b.boxed:
			return &make([]uint64, b.words())[0]
		case b.last < halfRows:
			return &new(halfBoxed[V]).words[0]
		default:
			return &new(boxedBlock[V]).words[0]
		}
	})
	if p == nil {
		return nil, nil, h.Room(s)
	}
	return unsafe.Slice(p, b.words()), b, nil
}

// Store atomically publishes v as V[s]. It returns an error wrapping
// ErrCapacity only when s is beyond the history's capacity. Once the block
// exists, a uint64 store allocates nothing.
func (h *History[V]) Store(s uint64, v V) error {
	words, b, err := h.block(s)
	if err != nil {
		return err
	}
	o := s & b.last
	if b.boxed {
		box := new(V) // v itself stays off the heap for the word path
		*box = v
		(*atomic.Pointer[V])(unsafe.Add(unsafe.Pointer(&words[0]), (b.vals+o)*8)).Store(box)
	} else {
		atomic.StoreUint64(&words[b.vals+o], *(*uint64)(unsafe.Pointer(&v))) // V is uint64
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
	if b := &h.layout[1]; readers&^b.mask != 0 {
		return fmt.Errorf("unbounded: reader bits %#x wider than a %d-bit row", readers, 1<<b.shift)
	}
	words, b, err := h.block(s)
	if err != nil {
		return err
	}
	lane := (s & b.last) << b.shift
	atomic.OrUint64(&words[b.rows+lane>>6], readers<<(lane&63))
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
	b := h.layout[min(s>>blockBits, 1)]
	b.p = atomic.LoadPointer(h.dir.slot(s))
	return b
}

// Block is one block of a History; an absent block's rows read unwritten.
// Its accessors inline into a row loop even in a generic body instantiated
// in another package, which sees only generic code and sync/atomic's
// functions (atomic.Uint64's methods would stay calls): so a block's words
// are plain uint64s, touched only through those functions, at offsets its
// layout bounds.
type Block[V any] struct {
	p     unsafe.Pointer // the block's first word; nil if absent
	vals  uint64         // word offset of the values, or of their boxes
	rows  uint64         // word offset of the rows
	shift uint           // log2 of the row width w
	mask  uint64         // the bits of one row
	last  uint64         // the block's row count less one
	boxed bool           // V is not a uint64
}

// words returns the length in words of the block's bits and inline values.
func (b *Block[V]) words() int { return int(b.rows + (b.last+1)<<b.shift>>6) }

// End returns the first row past the block holding s: the rows a view taken
// at s reads are [s, End(s)).
func (b Block[V]) End(s uint64) uint64 { return s | b.last + 1 }

// Load returns V[s], s in the block, and whether row s has been written.
func (b Block[V]) Load(s uint64) (v V, ok bool) {
	o := s & b.last
	if b.p == nil || atomic.LoadUint64((*uint64)(unsafe.Add(b.p, o>>6*8)))&(1<<(o&63)) == 0 {
		return v, false
	}
	val := unsafe.Add(b.p, (b.vals+o)*8)
	if b.boxed {
		return *(*atomic.Pointer[V])(val).Load(), true
	}
	w := atomic.LoadUint64((*uint64)(val))
	return *(*V)(unsafe.Pointer(&w)), true // V is uint64
}

// Row returns B[s], s in the block: its lane of the word it shares.
func (b Block[V]) Row(s uint64) uint64 {
	if b.p == nil {
		return 0
	}
	lane := (s & b.last) << b.shift
	return atomic.LoadUint64((*uint64)(unsafe.Add(b.p, (b.rows+lane>>6)*8))) >> (lane & 63) & b.mask
}

// Log is an array of atomically published pointers, Algorithm 3's views by
// version number, on the row map and directory of a History: its blocks
// hold 512, 512, then 1,024 pointers.
//
// Construct with NewLog; the zero value is not usable.
type Log[T any] struct{ dir dir[atomic.Pointer[T]] }

// NewLog returns a log addressable on rows [0, capacity), capacity > 0. It
// allocates no block: the first slot taken in a block does.
func NewLog[T any](capacity int) *Log[T] {
	l := new(Log[T])
	l.dir.init(capacity)
	return l
}

// Slot returns row s, allocating its block on first use, or nil if s is
// beyond the log's capacity.
func (l *Log[T]) Slot(s uint64) *atomic.Pointer[T] {
	last := lastRow(s)
	p := l.dir.block(s, func() *atomic.Pointer[T] { return &make([]atomic.Pointer[T], last+1)[0] })
	if p == nil {
		return nil
	}
	return &unsafe.Slice(p, last+1)[s&last]
}

// Load returns what row s holds, nil if nothing was published there.
func (l *Log[T]) Load(s uint64) *T {
	if p := atomic.LoadPointer(l.dir.slot(s)); p != nil {
		return (*atomic.Pointer[T])(unsafe.Add(p, s&lastRow(s)*8)).Load()
	}
	return nil
}
