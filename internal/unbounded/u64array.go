package unbounded

import (
	"fmt"
	"sync/atomic"
)

// U64Array is the word-sized specialization of Array: values live inline in
// atomic words instead of behind per-slot pointers, so Store is
// allocation-free once a slot's chunk exists (Array[T].Store heap-allocates a
// boxed value on every call). A presence bitmap distinguishes "never written"
// from a stored zero.
//
// As for Array, concurrent stores to the same slot always carry the same
// value (Lemma 18), so the value word and its presence bit need no joint
// atomicity: a reader that sees the bit sees some writer's store of the one
// value the slot can hold.
//
// Construct with NewU64Array; the zero value is not usable.
type U64Array struct {
	dir []atomic.Pointer[u64Chunk]
}

type u64Chunk struct {
	present [chunkSize / 64]atomic.Uint64
	vals    [chunkSize]atomic.Uint64
}

// NewU64Array returns an array addressable on [0, capacity). A capacity of 0
// selects DefaultCapacity.
func NewU64Array(capacity int) (*U64Array, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("unbounded: negative capacity %d", capacity)
	}
	return &U64Array{dir: make([]atomic.Pointer[u64Chunk], Slots(capacity)/chunkSize)}, nil
}

// Capacity returns the number of addressable slots.
func (a *U64Array) Capacity() uint64 { return uint64(len(a.dir)) * chunkSize }

// Store atomically publishes v at index i. It returns an error only when i is
// beyond the array's capacity.
func (a *U64Array) Store(i uint64, v uint64) error {
	c, err := a.chunkFor(i, true)
	if err != nil {
		return err
	}
	o := i & (chunkSize - 1)
	c.vals[o].Store(v)
	c.present[o>>6].Or(1 << (o & 63))
	return nil
}

// Load returns the value at index i and whether the slot has been written.
func (a *U64Array) Load(i uint64) (uint64, bool) {
	c, err := a.chunkFor(i, false)
	if err != nil || c == nil {
		return 0, false
	}
	o := i & (chunkSize - 1)
	if c.present[o>>6].Load()&(1<<(o&63)) == 0 {
		return 0, false
	}
	return c.vals[o].Load(), true
}

func (a *U64Array) chunkFor(i uint64, create bool) (*u64Chunk, error) {
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
	fresh := new(u64Chunk)
	if a.dir[ci].CompareAndSwap(nil, fresh) {
		return fresh, nil
	}
	return a.dir[ci].Load(), nil
}
