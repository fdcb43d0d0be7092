// Package unbounded provides the "infinite" shared arrays of Algorithms 1-3:
// V[0..∞] holding past values and B[0..∞][0..m-1] holding decrypted reader
// sets. Both are realized as lazily allocated two-level radix structures with
// lock-free reads and writes: a fixed directory of atomically installed
// chunks. Capacity is bounded by the directory size (16 Mi entries by
// default), standing in for the paper's truly infinite arrays; every slot
// below the current sequence number is written before R's sequence number
// advances past it, so readers always find initialized slots.
package unbounded

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

const (
	chunkBits = 10
	chunkSize = 1 << chunkBits // entries per chunk
)

// DefaultCapacity is the default maximum index plus one.
const DefaultCapacity = 1 << 24

// Slots returns how many slots a structure built with the given capacity
// addresses: the capacity, DefaultCapacity for 0, rounded up to whole chunks.
func Slots(capacity int) int {
	if capacity == 0 {
		capacity = DefaultCapacity
	}
	return (capacity + chunkSize - 1) &^ (chunkSize - 1)
}

// directory is the first level every structure here shares: one pointer per
// chunk of slots, installed atomically on first use.
type directory[C any] []atomic.Pointer[C]

func newDirectory[C any](capacity int) (directory[C], error) {
	if capacity < 0 {
		return nil, fmt.Errorf("unbounded: negative capacity %d", capacity)
	}
	return make(directory[C], Slots(capacity)/chunkSize), nil
}

// capacity returns the number of addressable slots.
func (d directory[C]) capacity() uint64 { return uint64(len(d)) * chunkSize }

// chunk returns the chunk holding slot i, installing it on first use.
func (d directory[C]) chunk(i uint64) (*C, error) {
	ci := i >> chunkBits
	if ci >= uint64(len(d)) {
		return nil, fmt.Errorf("unbounded: index %d beyond capacity %d", i, d.capacity())
	}
	if c := d[ci].Load(); c != nil {
		return c, nil
	}
	d[ci].CompareAndSwap(nil, new(C))
	return d[ci].Load(), nil
}

// lookup returns the chunk holding slot i, nil if there is none (yet).
func (d directory[C]) lookup(i uint64) *C {
	if ci := i >> chunkBits; ci < uint64(len(d)) {
		return d[ci].Load()
	}
	return nil
}

// ChunkEnd returns the first index past the chunk holding i: the slots a
// chunk view taken at i reads are [i, ChunkEnd(i)).
func ChunkEnd(i uint64) uint64 { return (i | (chunkSize - 1)) + 1 }

// Array is an unbounded array of T with atomic Store and Load per slot.
// Slots follow the register semantics of the paper's V[s]: concurrent stores
// to the same slot always carry the same value (established by Lemma 18), so
// last-writer-wins is indistinguishable from write-once.
//
// A uint64 lives inline in an atomic word, so storing one allocates nothing
// once its chunk exists; any other T is boxed behind a per-slot pointer. A
// presence bitmap tells a stored zero word from a slot never written. Word
// and bit need no joint atomicity: a reader that sees the bit sees some
// writer's store of the one value the slot can hold.
//
// Construct with NewArray; the zero value is not usable.
type Array[T any] struct {
	words directory[wordChunk]                    // T is uint64
	boxed directory[[chunkSize]atomic.Pointer[T]] // any other T
}

type wordChunk struct {
	present [chunkSize / 64]atomic.Uint64
	vals    [chunkSize]atomic.Uint64
}

// NewArray returns an array addressable on [0, capacity). A capacity of 0
// selects DefaultCapacity.
func NewArray[T any](capacity int) (a *Array[T], err error) {
	a = new(Array[T])
	if _, inline := any(*new(T)).(uint64); inline {
		a.words, err = newDirectory[wordChunk](capacity)
	} else {
		a.boxed, err = newDirectory[[chunkSize]atomic.Pointer[T]](capacity)
	}
	if err != nil {
		return nil, err
	}
	return a, nil
}

// Capacity returns the number of addressable slots.
func (a *Array[T]) Capacity() uint64 { return a.words.capacity() + a.boxed.capacity() }

// Store atomically publishes v at index i. It returns an error only when i is
// beyond the array's capacity.
func (a *Array[T]) Store(i uint64, v T) error {
	o := i & (chunkSize - 1)
	if a.words != nil {
		c, err := a.words.chunk(i)
		if err != nil {
			return err
		}
		c.vals[o].Store(*(*uint64)(unsafe.Pointer(&v))) // T is uint64
		c.present[o>>6].Or(1 << (o & 63))
		return nil
	}
	c, err := a.boxed.chunk(i)
	if err != nil {
		return err
	}
	box := new(T) // v itself stays off the heap for the word path
	*box = v
	c[o].Store(box)
	return nil
}

// Load returns the value at index i and whether the slot has been written.
func (a *Array[T]) Load(i uint64) (T, bool) { return a.Chunk(i).Load(i) }

// Chunk returns a view of the chunk holding index i: a reader walking up
// the slots looks the chunk up in the directory once, not once per slot.
func (a *Array[T]) Chunk(i uint64) ArrayChunk[T] {
	return ArrayChunk[T]{a.words.lookup(i), a.boxed.lookup(i)}
}

// ArrayChunk is one chunk of an Array; an absent chunk reads as unwritten.
type ArrayChunk[T any] struct {
	words *wordChunk
	boxed *[chunkSize]atomic.Pointer[T]
}

// Load returns the value at index i, which must lie in the chunk, and
// whether the slot has been written.
func (c ArrayChunk[T]) Load(i uint64) (v T, ok bool) {
	o := i & (chunkSize - 1)
	if c.words != nil && c.words.present[o>>6].Load()&(1<<(o&63)) != 0 {
		w := c.words.vals[o].Load()
		return *(*T)(unsafe.Pointer(&w)), true // T is uint64
	}
	if c.boxed != nil {
		if p := c.boxed[o].Load(); p != nil {
			return *p, true
		}
	}
	return v, false
}
