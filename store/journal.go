package store

import "fmt"

// JournalOp identifies the kind of store mutation carried by a
// JournalRecord.
type JournalOp uint8

// The journaled mutations. Silent reads are deliberately absent: a silent
// read touches no shared audit state, so it needs no durable trace. Absorbed
// register writes (core.Writer.WriteSeq installed == false) are likewise not
// journaled — they are linearized immediately before the write that absorbed
// them, so no observer, including an auditor, can ever distinguish a history
// with the record from one without it.
const (
	// JournalOpen records object creation: Name, Kind, Capacity.
	JournalOpen JournalOp = iota + 1
	// JournalWrite records a write: Name, Kind, Value, and — for Register
	// objects — the Seq the write installed. MaxRegister writes carry no
	// seq: a max register's state is the maximum of the values written, so
	// replay order is determined by value, not by install position.
	JournalWrite
	// JournalFetch records an effective read: reader Reader obtained Value,
	// installed at Seq, through a fetch&xor. This is the record the paper's
	// guarantee rides on: it carries everything needed to re-audit the read
	// — and to re-create the very write it observed, should that write's own
	// record miss the final group commit.
	JournalFetch
	// JournalAnnounce records the announce half of a read: pure helping,
	// journaled for operational fidelity, ignored by recovery.
	JournalAnnounce
	// JournalAudit marks the named object audited: an audit pool journals
	// it once a boot, at the object's first nonempty report. Recovery reads
	// only the name, to re-publish reports objects had before a crash.
	JournalAudit
)

// String returns the op's name.
func (op JournalOp) String() string {
	switch op {
	case JournalOpen:
		return "open"
	case JournalWrite:
		return "write"
	case JournalFetch:
		return "fetch"
	case JournalAnnounce:
		return "announce"
	case JournalAudit:
		return "audit"
	default:
		return "JournalOp(?)"
	}
}

// JournalRecord is one store mutation, as handed to a Journal. Which fields
// are meaningful depends on Op; Name and Kind are always set.
type JournalRecord[V comparable] struct {
	Op       JournalOp
	Name     string
	Kind     Kind
	Capacity int    // JournalOpen: audit-history capacity
	Reader   int    // JournalFetch, JournalAnnounce: reader index
	Seq      uint64 // install/fetch/announce sequence number
	Value    V      // JournalWrite, JournalFetch
	Pairs    int    // JournalAudit: report size when marked; informational
}

// Journal receives every mutation of a journaled store, in per-object order
// (the store emits an object's records in the order the mutations took
// effect on it, up to the reordering that concurrent writers inherently
// introduce — which is why JournalWrite carries Seq). Implementations decide
// durability per op: a write-ahead log with an fsync-always policy blocks
// JournalOpen/JournalWrite/JournalFetch until the record is stable, while
// JournalAnnounce and JournalAudit — pure helping and derived state — may
// always complete asynchronously.
//
// A Record error fails the triggering store operation. The in-memory
// mutation may already have taken effect by then (a fetch&xor cannot be
// undone); the caller sees the error, and the store remains usable, but the
// mutation is not guaranteed durable. Implementations must be safe for
// concurrent use.
type Journal[V comparable] interface {
	Record(r JournalRecord[V]) error
}

// AsyncJournal is an optional Journal extension for pipelined callers: a
// network server should not park a whole connection's dispatch loop on one
// record's fsync when the journal's group commit could be taking every
// in-flight mutation into the same batch. RecordAsync returns as soon as
// the record is appended (same ordering guarantees as Record); the returned
// Verdict's Wait blocks until the record's durability verdict and must be
// called exactly once. A nil Verdict means the record has no pending verdict
// (a non-blocking record under the journal's policy): the mutation is as
// settled as Record would have left it. An implementation may recycle a
// Verdict once its Wait has returned, so a caller keeps none past that.
type AsyncJournal[V comparable] interface {
	Journal[V]
	RecordAsync(r JournalRecord[V]) (Verdict, error)
}

// Verdict is the pending durability verdict of one journaled record.
type Verdict interface {
	Wait() error
}

// Commit is the durability wait WriteAsync and ReadFetchAsync split off: the
// journal's verdict and what its error names. A value: handing it on to the
// goroutine that waits allocates nothing. The zero Commit has nothing pending.
type Commit struct {
	v    Verdict
	op   JournalOp
	name string
}

// Pending reports whether Wait has a verdict to wait for.
func (c Commit) Pending() bool { return c.v != nil }

// Wait blocks until the mutation's record is durable and reports the
// verdict, wrapped as Record's error would be. It must be called exactly
// once when Pending.
func (c Commit) Wait() error {
	if c.v == nil {
		return nil
	}
	if err := c.v.Wait(); err != nil {
		return fmt.Errorf("store: %v %q: journal: %w", c.op, c.name, err)
	}
	return nil
}

// maxJournaledName bounds object names on a journaled store. It matches
// both the wire protocol's name cap and the durable record format's
// (persist), so an object a journaled store accepts can always be recorded
// and replayed; rejecting at creation keeps the map and the journal in
// agreement (an object must never exist whose creation the journal refused).
const maxJournaledName = 1024

// WithJournal attaches a journal at construction time. Every subsequent
// mutation is journaled; see Journal for semantics.
func WithJournal[V comparable](j Journal[V]) Option[V] {
	return func(st *Store[V]) error {
		st.journal = j
		return nil
	}
}

// SetJournal attaches a journal to a running store. It is the recovery
// hand-off: a write-ahead log first replays its records into a journal-less
// store (so the replay is not re-journaled), then attaches itself before the
// store is exposed to traffic. SetJournal must happen before any concurrent
// use of the store; it is not synchronized against in-flight operations.
func (st *Store[V]) SetJournal(j Journal[V]) { st.journal = j }

// Journaled reports whether the store has a journal attached.
func (st *Store[V]) Journaled() bool { return st.journal != nil }
