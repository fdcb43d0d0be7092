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

// Array is an unbounded array of T with atomic Store and Load per slot.
// Slots follow the register semantics of the paper's V[s]: concurrent stores
// to the same slot always carry the same value (established by Lemma 18), so
// last-writer-wins is indistinguishable from write-once.
//
// Construct with NewArray; the zero value is not usable.
type Array[T any] struct {
	dir []atomic.Pointer[chunk[T]]
}

type chunk[T any] struct {
	slots [chunkSize]atomic.Pointer[T]
}

// NewArray returns an array addressable on [0, capacity). A capacity of 0
// selects DefaultCapacity.
func NewArray[T any](capacity int) (*Array[T], error) {
	if capacity < 0 {
		return nil, fmt.Errorf("unbounded: negative capacity %d", capacity)
	}
	return &Array[T]{dir: make([]atomic.Pointer[chunk[T]], Slots(capacity)/chunkSize)}, nil
}

// Capacity returns the number of addressable slots.
func (a *Array[T]) Capacity() uint64 { return uint64(len(a.dir)) * chunkSize }

// Store atomically publishes v at index i. It returns an error only when i is
// beyond the array's capacity.
func (a *Array[T]) Store(i uint64, v T) error {
	c, err := a.chunkFor(i, true)
	if err != nil {
		return err
	}
	c.slots[i&(chunkSize-1)].Store(&v)
	return nil
}

// Load returns the value at index i and whether the slot has been written.
func (a *Array[T]) Load(i uint64) (T, bool) {
	var zero T
	c, err := a.chunkFor(i, false)
	if err != nil || c == nil {
		return zero, false
	}
	p := c.slots[i&(chunkSize-1)].Load()
	if p == nil {
		return zero, false
	}
	return *p, true
}

func (a *Array[T]) chunkFor(i uint64, create bool) (*chunk[T], error) {
	ci := i >> chunkBits
	if ci >= uint64(len(a.dir)) {
		return nil, fmt.Errorf("unbounded: index %d beyond capacity %d", i, a.Capacity())
	}
	if c := a.dir[ci].Load(); c != nil {
		return c, nil
	}
	if !create {
		return nil, nil
	}
	fresh := new(chunk[T])
	if a.dir[ci].CompareAndSwap(nil, fresh) {
		return fresh, nil
	}
	return a.dir[ci].Load(), nil
}
