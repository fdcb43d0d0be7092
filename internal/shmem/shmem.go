// Package shmem provides the shared-memory base objects of the paper's model
// (Section 2): linearizable registers accessed with read, write,
// compare&swap, and fetch&xor primitives.
//
// The central object is the register R of Algorithms 1 and 2, which holds a
// triple (sequence number, value, m-bit tracking string) — the value carrying
// the nonce Algorithm 2 appends to it. Three backends implement the same
// TripleReg interface, and nobody picks between the first two by hand:
//
//   - SeqlockTriple: allocation-free, for word-sized values; core selects it
//     whenever the value type is uint64;
//   - PtrTriple: lock-free and strictly wait-free, built on a pointer to an
//     immutable triple with pointer compare&swap; core selects it for every
//     other value type;
//   - LockedTriple: a mutex-protected reference implementation, trivially
//     linearizable. It is never selected: tests cross-check the other two
//     against it, and so do LockedSeq against AtomicSeq.
//
// Go's sync/atomic has no fetch&xor (only And/Or since Go 1.23), so every
// backend realizes fetch&xor as a linearizable read-modify-write: a CAS retry
// loop for PtrTriple, a critical section for the other two. Each
// fetch&xor still takes effect atomically, which is the only property the
// paper's proofs rely on; the step-count bounds (Lemma 2) are asserted in the
// deterministic scheduler where a fetch&xor is a single step.
package shmem

// MaxReaders is the largest supported number of readers m: the tracking bits
// occupy one 64-bit word.
const MaxReaders = 64

// Triple is the content of the register R: the current value, its sequence
// number, and the encrypted reader set in the low m bits of Bits.
type Triple[V comparable] struct {
	// Seq is the value's sequence number.
	Seq uint64
	// Val is the register's current value.
	Val V
	// Nonce is the random nonce Algorithm 2's writeMax appends to Val; the
	// pair (Val, Nonce) is what its order compares. Always 0 under
	// Algorithm 1.
	Nonce uint64
	// Bits is the one-time-pad-encrypted reader set of Val.
	Bits uint64
}

// TripleReg is a linearizable register holding a Triple, supporting the
// primitives Algorithm 1 applies to R. Implementations must be safe for
// concurrent use.
type TripleReg[V comparable] interface {
	// Load atomically reads the triple.
	Load() Triple[V]
	// CompareAndSwap atomically replaces the content with new if it
	// currently equals old, reporting whether it did.
	CompareAndSwap(old, new Triple[V]) bool
	// FetchXor atomically XORs mask into the tracking bits and returns the
	// triple held immediately before the operation.
	FetchXor(mask uint64) Triple[V]
}

// SeqReg is a linearizable register holding a sequence number, supporting the
// primitives Algorithms 1 and 2 apply to SN. Implementations must be safe for
// concurrent use.
type SeqReg interface {
	// Load atomically reads the sequence number.
	Load() uint64
	// CompareAndSwap atomically replaces the content with new if it
	// currently equals old, reporting whether it did.
	CompareAndSwap(old, new uint64) bool
}
