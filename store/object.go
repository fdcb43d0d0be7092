package store

import (
	"fmt"
	"sync"

	"auditreg"
)

// Object is one named auditable object hosted by a Store. All methods are
// safe for concurrent use; obtain objects from Store.Open or Store.Lookup.
//
// Unlike the bare auditreg objects — whose per-process handles the caller
// threads through its own code — an Object manages handles itself: one
// persistent, mutex-guarded read handle per reader index (so the silent-read
// cache and the one-fetch&xor-per-write invariant survive calls from
// arbitrary goroutines) and a free pool of writer handles (so concurrent
// writers never share one).
type Object[V comparable] struct {
	st   *Store[V]
	name string
	kind Kind

	reg  *auditreg.Register[V]
	max  *auditreg.MaxRegister[V]
	snap *auditreg.Snapshot[V]
	// regs is reg or max, whichever the kind made: the two differ in their
	// write alone, so reads and audits go through here without asking.
	regs registerHandles[V]

	readSlots []readSlot[V]
	comps     []compSlot[V]  // Snapshot only: per-component updater
	writers   sync.Pool      // Register/MaxRegister write handles
	cur       auditCursor[V] // the object's one audit fold
}

// registerHandles is what a Register and a MaxRegister share: Algorithm 1's
// read and audit handles.
type registerHandles[V comparable] interface {
	Reader(j int, opts ...auditreg.HandleOption) (*auditreg.Reader[V], error)
	Auditor(opts ...auditreg.HandleOption) *auditreg.Auditor[V]
}

// readSlot serializes one reader principal's accesses. The handle is created
// on first use: reader for a Register or MaxRegister, scanner for a Snapshot.
type readSlot[V comparable] struct {
	mu      sync.Mutex
	reader  *auditreg.Reader[V]
	scanner *auditreg.SnapshotScanner[V]
	// Slots lie side by side and every read locks its own: without the
	// padding two reader principals on two cores steal one cache line from
	// each other on every read of the object.
	_ [40]byte
}

// compSlot serializes updates of one snapshot component, upholding the
// algorithm's single-writer-per-component regime across goroutines.
type compSlot[V comparable] struct {
	mu sync.Mutex
	up *auditreg.SnapshotUpdater[V]
}

// newObject builds the object stored under name. It runs under the name
// map's shard lock, so it only allocates — handles come later, on use, and
// journaling (which may block on an fsync) happens in Open, after the lock
// is released.
func (st *Store[V]) newObject(name string, kind Kind, cfg openConfig) (*Object[V], error) {
	if st.journal != nil {
		if kind == Snapshot {
			return nil, fmt.Errorf("store: open %q: %v objects have no replayable journal form: %w", name, kind, ErrNotJournaled)
		}
		if len(name) > maxJournaledName {
			return nil, fmt.Errorf("store: open: name of %d bytes exceeds the journaled limit %d: %w", len(name), maxJournaledName, ErrNotJournaled)
		}
	}
	pads, err := auditreg.NewBlockPads(st.objectKey(name), st.readers)
	if err != nil {
		return nil, err
	}

	obj := &Object[V]{st: st, name: name, kind: kind, readSlots: make([]readSlot[V], st.readers)}
	switch kind {
	case Register:
		obj.reg, err = auditreg.NewRegister(st.readers, st.initial, pads, auditreg.WithCapacity[V](cfg.capacity))
		obj.regs = obj.reg
	case MaxRegister:
		if st.less == nil {
			return nil, fmt.Errorf("store: open %q: MaxRegister needs store.WithLess", name)
		}
		obj.max, err = auditreg.NewMaxRegister(st.readers, st.initial, st.less, pads, auditreg.WithMaxCapacity[V](cfg.capacity))
		obj.regs = obj.max
	case Snapshot:
		obj.snap, err = auditreg.NewSnapshot(cfg.components, st.readers, st.initial, pads, auditreg.WithSnapshotCapacity[V](cfg.capacity))
		obj.comps = make([]compSlot[V], cfg.components)
	default:
		return nil, fmt.Errorf("store: open %q: unknown kind %v", name, kind)
	}
	if err != nil {
		return nil, err
	}
	return obj, nil
}

// Name returns the name the object is stored under.
func (o *Object[V]) Name() string { return o.name }

// Kind returns the object's kind.
func (o *Object[V]) Kind() Kind { return o.kind }

// Readers returns the object's reader count m.
func (o *Object[V]) Readers() int { return len(o.readSlots) }

// Components returns a Snapshot object's component count, 0 otherwise.
func (o *Object[V]) Components() int { return len(o.comps) }

// Write writes v: an overwrite for a Register, a writeMax for a
// MaxRegister. Snapshot objects take component writes through UpdateAt.
//
// On a journaled store the write is recorded after it takes effect in
// memory: Register records carry the install seq (absorbed writes — never
// observable — are not recorded), MaxRegister records carry the value alone.
// Under a blocking durability policy Write returns only once the record is
// stable.
func (o *Object[V]) Write(v V) error {
	commit, err := o.WriteAsync(v)
	if err != nil {
		return err
	}
	return commit.Wait()
}

// journal hands a record to the store's journal, if one is attached.
func (o *Object[V]) journal(r JournalRecord[V]) error {
	if j := o.st.journal; j != nil {
		if err := j.Record(r); err != nil {
			return fmt.Errorf("store: %v %q: journal: %w", r.Op, o.name, err)
		}
	}
	return nil
}

// journalAsync hands a record to the store's journal without waiting for
// its durability verdict when the journal supports that (AsyncJournal);
// otherwise it falls back to the blocking path. The returned Commit (the
// zero Commit when there is nothing to wait for) reports the verdict,
// wrapped exactly as journal would have.
func (o *Object[V]) journalAsync(r JournalRecord[V]) (Commit, error) {
	j := o.st.journal
	if j == nil {
		return Commit{}, nil
	}
	aj, ok := j.(AsyncJournal[V])
	if !ok {
		return Commit{}, o.journal(r)
	}
	v, err := aj.RecordAsync(r)
	if err != nil {
		return Commit{}, fmt.Errorf("store: %v %q: journal: %w", r.Op, o.name, err)
	}
	return Commit{v: v, op: r.Op, name: o.name}, nil
}

// WriteAsync is Write with the durability wait split off: the write takes
// effect in memory and its record is appended to the journal, but instead
// of blocking for the fsync, WriteAsync returns a Commit whose Wait the
// caller calls (exactly once) to collect the verdict. The Commit is not
// Pending when there is nothing to wait for — no journal, or a non-blocking
// policy. The network server uses this to keep executing a connection's
// requests while a whole batch of mutations rides one group commit; Write
// is WriteAsync plus the immediate Wait.
func (o *Object[V]) WriteAsync(v V) (Commit, error) {
	switch o.kind {
	case Register:
		w, _ := o.writers.Get().(*auditreg.Writer[V])
		if w == nil {
			w = o.reg.Writer()
		}
		seq, installed, err := w.WriteSeq(v)
		o.writers.Put(w)
		if err != nil || !installed {
			return Commit{}, err
		}
		return o.journalAsync(JournalRecord[V]{Op: JournalWrite, Name: o.name, Kind: Register, Seq: seq, Value: v})
	case MaxRegister:
		w, _ := o.writers.Get().(*auditreg.MaxWriter[V])
		if w == nil {
			var werr error
			w, werr = o.max.Writer(o.st.nonces(o.st.nonceID.Add(1)))
			if werr != nil {
				return Commit{}, werr
			}
		}
		err := w.WriteMax(v)
		o.writers.Put(w)
		if err != nil {
			return Commit{}, err
		}
		return o.journalAsync(JournalRecord[V]{Op: JournalWrite, Name: o.name, Kind: MaxRegister, Value: v})
	default:
		return Commit{}, fmt.Errorf("store: write %q: %v objects take UpdateAt, not Write: %w", o.name, o.kind, ErrKindMismatch)
	}
}

// ReadFetchAsync is ReadFetch with the durability wait split off, exactly
// as WriteAsync splits Write: an effective read's fetch record is appended
// before the call returns, and commit's Wait (commit is not Pending when
// there is nothing to wait for) blocks until it is stable. The caller must
// not acknowledge the read to anyone before Wait returns nil.
//
// Unlike ReadFetch — which holds the reader slot across its journal wait,
// so concurrent goroutines driving one reader index can never complete a
// silent read ahead of a pending fetch record — ReadFetchAsync releases
// the slot after the append. A caller whose reader principals are
// sequential (the paper's model, and the network protocol's: one response
// withheld per in-flight fetch) is unaffected; a caller that fans one
// reader index out across goroutines and needs the stronger ordering must
// keep using ReadFetch.
func (o *Object[V]) ReadFetchAsync(reader int) (val V, seq uint64, fetched bool, commit Commit, err error) {
	s, err := o.lockReader("read-fetch", reader)
	if err != nil {
		return val, 0, false, commit, err
	}
	defer s.mu.Unlock()
	if val, seq, fetched = s.reader.ReadFetch(); fetched {
		commit, err = o.journalAsync(JournalRecord[V]{Op: JournalFetch, Name: o.name, Kind: o.kind, Reader: reader, Seq: seq, Value: val})
	}
	return val, seq, fetched, commit, err
}

// lockReader locks the given reader principal's slot and returns it with the
// register read handle in place; the caller unlocks. A MaxRegister's reader
// is the Register's, so what follows is one code path for both kinds.
func (o *Object[V]) lockReader(op string, reader int) (*readSlot[V], error) {
	if reader < 0 || reader >= len(o.readSlots) {
		return nil, fmt.Errorf("store: %s %q: reader %d out of range [0, %d)", op, o.name, reader, len(o.readSlots))
	}
	if o.regs == nil {
		return nil, fmt.Errorf("store: %s %q: %v objects take Scan: %w", op, o.name, o.kind, ErrKindMismatch)
	}
	s := &o.readSlots[reader]
	s.mu.Lock()
	if s.reader == nil {
		rd, err := o.regs.Reader(reader)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		s.reader = rd
	}
	return s, nil
}

// Read returns the current value as seen by the given reader index: the
// latest write for a Register, the maximum for a MaxRegister. Snapshot
// objects are read through Scan.
//
// Read is ReadFetch followed, when a fetch happened, by Announce — the same
// decomposition the algorithms and the network layer use — so on a journaled
// store a local read leaves exactly the records a remote read would: one
// fetch record per effective read (an announce failure is not surfaced; like
// the network client's pipelined announce, it is pure helping).
func (o *Object[V]) Read(reader int) (V, error) {
	val, seq, fetched, err := o.ReadFetch(reader)
	if err != nil {
		var zero V
		return zero, err
	}
	if fetched {
		_ = o.Announce(reader, seq)
	}
	return val, nil
}

// ReadFetch performs the fetch half of a read for the given reader index:
// the silent-read check and — only when a new write is visible — exactly one
// fetch&xor on the object's register R, through the same persistent
// per-(object, reader) handle Read uses. fetched reports whether a fetch&xor
// was applied; either way val/seq are the reader's current view.
//
// Together with Announce this is the read path the network layer drives: the
// server executes the two shared-memory halves on behalf of a remote reader,
// one request frame per half, and the handle's silent-read cache keeps the
// at-most-one-fetch&xor-per-write invariant enforced server-side no matter
// how a remote client behaves. Snapshot objects have no split read (scans go
// through Scan) and return ErrKindMismatch.
func (o *Object[V]) ReadFetch(reader int) (val V, seq uint64, fetched bool, err error) {
	s, err := o.lockReader("read-fetch", reader)
	if err != nil {
		return val, 0, false, err
	}
	defer s.mu.Unlock()
	if val, seq, fetched = s.reader.ReadFetch(); fetched {
		// The read just became effective; make its audit trace durable
		// before acknowledging it. The record carries the observed value, so
		// it can stand in for the write it observed should that write's own
		// record miss the final group commit of a crashing server.
		err = o.journal(JournalRecord[V]{Op: JournalFetch, Name: o.name, Kind: o.kind, Reader: reader, Seq: seq, Value: val})
	}
	return val, seq, fetched, err
}

// Announce performs the announce half of a read: help complete the seq-th
// write on behalf of the given reader index. Only the seq the slot's latest
// ReadFetch fetched is acted on; stale, duplicated, or forged seqs are
// ignored (the reader handle enforces this — see core.Reader.Announce), so
// Announce is safe to drive from untrusted remote clients and ignores the
// outcome of the underlying CAS.
func (o *Object[V]) Announce(reader int, seq uint64) error {
	s, err := o.lockReader("announce", reader)
	if err != nil {
		return err
	}
	defer s.mu.Unlock()
	s.reader.Announce(seq)
	// Journaled for operational fidelity only: announcing is pure helping,
	// so recovery ignores these records and journals never block on them.
	return o.journal(JournalRecord[V]{Op: JournalAnnounce, Name: o.name, Kind: o.kind, Reader: reader, Seq: seq})
}

// Scan returns an atomic view of a Snapshot object as seen by the given
// reader (scanner) index.
func (o *Object[V]) Scan(reader int) ([]V, error) {
	if o.kind != Snapshot {
		return nil, fmt.Errorf("store: scan %q: %v objects take Read, not Scan: %w", o.name, o.kind, ErrKindMismatch)
	}
	if reader < 0 || reader >= len(o.readSlots) {
		return nil, fmt.Errorf("store: scan %q: reader %d out of range [0, %d)", o.name, reader, len(o.readSlots))
	}
	s := &o.readSlots[reader]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.scanner == nil {
		sc, err := o.snap.Scanner(reader)
		if err != nil {
			return nil, err
		}
		s.scanner = sc
	}
	return s.scanner.Scan(), nil
}

// UpdateAt sets component i of a Snapshot object to v. Updates of one
// component are serialized by the object (the algorithm's single writer per
// component); distinct components update concurrently.
func (o *Object[V]) UpdateAt(i int, v V) error {
	if o.kind != Snapshot {
		return fmt.Errorf("store: update %q: %v objects take Write, not UpdateAt: %w", o.name, o.kind, ErrKindMismatch)
	}
	if i < 0 || i >= len(o.comps) {
		return fmt.Errorf("store: update %q: component %d out of range [0, %d)", o.name, i, len(o.comps))
	}
	c := &o.comps[i]
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.up == nil {
		up, err := o.snap.Updater(i, o.st.nonces(o.st.nonceID.Add(1)))
		if err != nil {
			return err
		}
		c.up = up
	}
	return c.up.Update(v)
}

// Peek returns a MaxRegister object's current (largest) value without any
// audit effect: a bare read of the substrate M, never a fetch&xor. The
// network layer's SHARE-WRITE path uses it to report the resident packed
// write id; it is not a read in the model's sense and leaves no trace, so
// nothing user-facing should be served from it. Other kinds return
// ErrKindMismatch — a plain Register's current value is only defined through
// a reader principal.
func (o *Object[V]) Peek() (V, error) {
	var zero V
	if o.kind != MaxRegister {
		return zero, fmt.Errorf("store: peek %q: only MaxRegister objects have an unaudited current value: %w", o.name, ErrKindMismatch)
	}
	return o.max.Peek(), nil
}

// Audit advances the object's one audit fold by an incremental audit and
// returns the cumulative report it publishes: the exact audit set, linearized
// within the call. The fold is the one an AuditPool's sweeps, AuditObject and
// Rows advance, so an audit folds only the rows written since anyone last
// audited the object; the first audit folds the whole history. The report is
// a zero-copy view of the fold's append-only list: read-only.
func (o *Object[V]) Audit() (ObjectAudit[V], error) {
	if err := o.advance(); err != nil {
		return ObjectAudit[V]{}, err
	}
	rep, _ := o.report()
	return rep, nil
}
