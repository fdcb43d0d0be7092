package core

import "math/bits"

// AuditSet is the audit set A shared by the register and max-register
// auditors: an append-only entry list deduplicated through one reader
// bitmask per distinct value. Folding a decrypted history row in is a single
// AND-NOT when the row brings nothing new, and reports are O(1) snapshots of
// the list rather than copies.
//
// Not safe for concurrent use: one per auditor handle. Construct with
// NewAuditSet.
type AuditSet[V comparable] struct {
	seenBits map[V]uint64 // readers already recorded per value
	entries  []Entry[V]
}

// NewAuditSet returns an empty audit set.
func NewAuditSet[V comparable]() AuditSet[V] {
	return AuditSet[V]{seenBits: make(map[V]uint64)}
}

// Reserve sizes an empty set for an audit about to fold rows history rows: a
// first audit of a long history would otherwise regrow its map and its list
// a dozen times over (a quarter of what a cold audit cost). The reservation
// is capped: not every row was read, and a long-lived cursor keeps it.
func (a *AuditSet[V]) Reserve(rows uint64) {
	if len(a.seenBits) == 0 && rows > 8 {
		rows = min(rows, 1024)
		a.seenBits = make(map[V]uint64, rows)
		a.entries = make([]Entry[V], 0, rows)
	}
}

// Add folds a decrypted reader row for val into the set; only genuinely new
// readers are walked, one TrailingZeros64 per set bit.
func (a *AuditSet[V]) Add(row uint64, val V) {
	if row == 0 {
		return
	}
	seen := a.seenBits[val]
	fresh := row &^ seen
	if fresh == 0 {
		return
	}
	a.seenBits[val] = seen | fresh
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
