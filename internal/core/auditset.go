package core

import (
	"hash/maphash"
	"math/bits"
)

// Index is an audit set's dedupe index: an open-addressed table of
// 1+position into a list the set keeps itself (0: empty), probed linearly
// and at most half full. The key lives once, in the owner's list, and the
// owner supplies the hash and the equality. The zero value is empty.
type Index struct{ slots []uint32 }

// Reserve makes an empty index hold n positions without growing.
func (x *Index) Reserve(n int) { x.slots = make([]uint32, slotsFor(n)) }

// slotsFor is the smallest power of two of slots, at least 16, that holds n
// positions at most half full.
func slotsFor(n int) int { return max(16, 1<<bits.Len(uint(2*n-1))) }

// Find returns the position on hash h's probe sequence that eq accepts. If
// there is none it adds n, the count of positions held, and returns it with
// added set. When n+1 positions would fill the index past half, it first
// doubles the index, placing each position held by its hash.
func (x *Index) Find(h uint64, n int, eq func(pos int) bool, hash func(pos int) uint64) (pos int, added bool) {
	if 2*(n+1) > len(x.slots) {
		x.slots = make([]uint32, slotsFor(n+1))
		for p := range n {
			x.slots[x.probe(hash(p), nil)] = uint32(p + 1)
		}
	}
	slot := x.probe(h, eq)
	if p := x.slots[slot]; p != 0 {
		return int(p - 1), false
	}
	x.slots[slot] = uint32(n + 1)
	return n, true
}

// probe walks hash h's probe sequence to the slot of the position eq
// accepts, or to the first empty slot (eq nil accepts none).
func (x *Index) probe(h uint64, eq func(pos int) bool) int {
	mask := len(x.slots) - 1
	slot := int(h) & mask
	for p := x.slots[slot]; p != 0 && (eq == nil || !eq(int(p-1))); p = x.slots[slot] {
		slot = (slot + 1) & mask
	}
	return slot
}

// AuditSet is the audit set A of every auditor (register, max register,
// remote, cluster merge): an append-only entry list deduplicated through one
// reader bitmask per distinct value. The values are listed densely, each as
// its mask and the position of its first entry, and an Index over that list
// finds a row's value with one probe whatever its reader count: 16 bytes of
// list and 8 to 16 of index a value, about a Go map's entry. Reports are
// O(1) snapshots of the entry list, not copies.
//
// Not safe for concurrent use: one per auditor handle. Construct with
// NewAuditSet.
type AuditSet[V comparable] struct {
	entries []Entry[V]
	values  []value // the distinct values, in order of first appearance
	index   Index   // over values
	hash    func(V) uint64
}

type value struct {
	seen  uint64 // readers recorded
	first uint32 // position of the value's first entry
}

// NewAuditSet returns an empty audit set.
func NewAuditSet[V comparable]() AuditSet[V] {
	if h, ok := any(hashWord).(func(V) uint64); ok {
		return AuditSet[V]{hash: h}
	}
	return AuditSet[V]{hash: func(v V) uint64 { return maphash.Comparable(valueSeed, v) }}
}

var (
	valueSeed = maphash.MakeSeed()
	wordSeed  = maphash.Comparable(valueSeed, 0) // keys hashWord: writers choose the values
)

// hashWord is a word's hash: a keyed splitmix64 finalizer, under half the
// cost of maphash.
func hashWord(v uint64) uint64 {
	v ^= wordSeed
	v = (v ^ v>>30) * 0xbf58476d1ce4e5b9
	v = (v ^ v>>27) * 0x94d049bb133111eb
	return v ^ v>>31
}

// HashWords is a word list's hash: hashWord chained over the words, each
// step keyed and finalized again, after the length.
func HashWords(ws []uint64) uint64 {
	h := uint64(len(ws))
	for _, w := range ws {
		h = hashWord(h ^ w)
	}
	return h
}

// Reserve sizes an empty set for an audit about to fold rows history rows:
// a fresh handle's first audit of a long history would otherwise regrow the
// index and the lists a dozen times over. The reservation is capped, as not
// every row was read, and rounded up to a power of two: up to 512 those are
// the sizes append reaches growing a list from eight, so a long-lived handle
// (a pool cursor, whose first audit sees a few dozen rows) ends at the sizes
// it would have grown to anyway, where reserving the exact count left the
// store-local ladder's cursors 3.5 MiB more heap (E40). A set nothing
// reserved starts at eight values.
func (a *AuditSet[V]) Reserve(rows int) {
	if rows = min(rows, 2048); len(a.values) == 0 && rows > max(cap(a.values), 8) {
		a.reserve(1 << bits.Len(uint(rows-1)))
	}
}

func (a *AuditSet[V]) reserve(n int) {
	a.index.Reserve(n)
	a.values, a.entries = make([]value, 0, n), make([]Entry[V], 0, n)
}

// Add folds a decrypted reader row for val into the set; only genuinely new
// readers are walked, one TrailingZeros64 per set bit.
func (a *AuditSet[V]) Add(row uint64, val V) {
	if row == 0 {
		return
	}
	if cap(a.values) == 0 {
		a.reserve(8)
	}
	d, added := a.index.Find(a.hash(val), len(a.values),
		func(d int) bool { return a.entries[a.values[d].first].Value == val },
		func(d int) uint64 { return a.hash(a.entries[a.values[d].first].Value) })
	if added {
		a.values = append(a.values, value{first: uint32(len(a.entries))})
	}
	v := &a.values[d]
	fresh := row &^ v.seen
	v.seen |= fresh
	for r := fresh; r != 0; r &= r - 1 {
		a.entries = append(a.entries, Entry[V]{Reader: bits.TrailingZeros64(r), Value: val})
	}
}

// View snapshots the set without copying: the entry list is append-only and
// its elements are never mutated, so a capacity-capped subslice stays valid
// as the auditor keeps appending.
func (a *AuditSet[V]) View() Report[V] {
	return NewReportView(a.entries[:len(a.entries):len(a.entries)])
}
