package client

import (
	"fmt"
	"sync"

	"auditreg/internal/core"
	"auditreg/internal/telem"
	"auditreg/store"
	"auditreg/wire"
)

// Object is a remote auditable object: the client-side mirror of
// store.Object for the remotable kinds (Register, MaxRegister). All methods
// are safe for concurrent use; per-reader protocol state is serialized per
// (object, reader), exactly as in the local store.
type Object struct {
	c       *Client
	name    string
	kind    store.Kind
	wkind   uint8
	readers int
	slots   []readSlot
}

// readSlot is one reader principal's client-side protocol state: the
// paper's prev_sn / prev_val silent-read cache, moved to the reading
// process where it belongs. prevSeq is lazily initialized to ^uint64(0)
// (the paper's prev_sn = -1) on first use. epoch remembers which server
// boot the cache was filled under; when the server restarts (recovery
// renumbers sequence numbers) the cache is dropped rather than risk a
// seq collision serving a stale value. mu is held while a fetch for the
// reader is on the wire — locked by the goroutine that starts it, unlocked by
// the read loop that completes it.
type readSlot struct {
	mu      sync.Mutex
	init    bool
	epoch   uint64
	prevSeq uint64
	prevVal uint64
}

// Name returns the name the object is stored under.
func (o *Object) Name() string { return o.name }

// Kind returns the object's kind.
func (o *Object) Kind() store.Kind { return o.kind }

// Readers returns the object's reader count m.
func (o *Object) Readers() int { return o.readers }

// Write writes v: an overwrite for a Register, a writeMax for a
// MaxRegister. The request frame is encoded into (and recycled through) the
// wire buffer arena — steady-state writes allocate nothing per call. A
// write the server sheds under admission control is retried with jittered
// backoff (see retryBusy); writes are idempotent per value, so a repeat is
// always safe.
func (o *Object) Write(v uint64) error {
	_, err := o.await(leg{verb: wire.VerbWrite, val: v})
	return err
}

// Read returns the current value as seen by the given reader index, driving
// the paper's read over the wire: one READ-FETCH, silent when the client
// cache is already current server-side; after a fetch the server performs
// the helping announce itself, so an effective read is one round trip too.
// The value arrives masked under the connection's session secret and is
// unmasked here, locally.
func (o *Object) Read(reader int) (uint64, error) {
	return o.fetch(wire.VerbReadFetch, reader)
}

// fetch is the blocking read of either plane: READ-FETCH or SHARE-FETCH.
func (o *Object) fetch(verb wire.Verb, reader int) (uint64, error) {
	if reader < 0 || reader >= o.readers {
		return 0, fmt.Errorf("client: %v %q: reader %d out of range [0, %d)", verb, o.name, reader, o.readers)
	}
	return o.await(leg{verb: verb, slot: &o.slots[reader], reader: uint8(reader)})
}

// Writer returns a write handle, mirroring the local API. Handles are
// stateless and cheap; unlike local handles they are safe for concurrent
// use.
func (o *Object) Writer() *Writer { return &Writer{o: o} }

// Reader returns the handle for reader j (0 <= j < m), mirroring the local
// API. The handle shares the object's per-reader protocol state, so any
// number of goroutines may drive one reader principal.
func (o *Object) Reader(j int) (*Reader, error) {
	if j < 0 || j >= o.readers {
		return nil, fmt.Errorf("client: reader index %d out of range [0, %d)", j, o.readers)
	}
	return &Reader{o: o, j: j}, nil
}

// Auditor returns an audit handle, mirroring the local API. It requires the
// client to hold the store key (WithKey): audit rows cross the wire masked
// and are decrypted only here, client-side.
func (o *Object) Auditor() (*Auditor, error) {
	if !o.c.hasKey {
		return nil, fmt.Errorf("client: auditor for %q: no store key (configure WithKey)", o.name)
	}
	return &Auditor{o: o, set: core.NewAuditSet[uint64]()}, nil
}

// Writer is a write handle of a remote object.
type Writer struct {
	o *Object
}

// Write writes v; see Object.Write.
func (w *Writer) Write(v uint64) error { return w.o.Write(v) }

// Reader is a read handle of one reader principal of a remote object.
type Reader struct {
	o *Object
	j int
}

// Index returns the reader's index j.
func (r *Reader) Index() int { return r.j }

// Read returns the object's current value as seen by this reader; see
// Object.Read.
func (r *Reader) Read() (uint64, error) { return r.o.Read(r.j) }

// Auditor is an audit handle of a remote object, and like the local handle
// it mirrors it is the paper's auditor: it keeps the cumulative set A and the
// cursor lsa between audits, so an audit asks the server only for the rows
// from lsa on and costs what was written since the last one. Both are valid
// within one server boot: epoch is the boot they were learned under, and a
// response from any other (a restart, a redial to another process) restarts
// them from nothing — recovery renumbers, and a volatile restart forgets.
// Safe for concurrent use; audits of one handle take turns.
type Auditor struct {
	o *Object

	mu    sync.Mutex
	epoch uint64
	lsa   uint64
	set   core.AuditSet[uint64]
	resp  wire.AuditResp // decode scratch
}

// Audit requests a fresh audit — rows covering everything linearized before
// the server handled the request — and unmasks them locally with the store
// key. The report is cumulative, as audits are: a zero-copy view of the
// handle's set, read-only.
func (a *Auditor) Audit() (store.ObjectAudit[uint64], error) { return a.audit(true) }

// Latest folds in what the server audit pool most recently published for the
// object instead: the cheap path, possibly slightly stale, never contending
// with writers.
func (a *Auditor) Latest() (store.ObjectAudit[uint64], error) { return a.audit(false) }

// Epoch returns the server boot the handle's set and cursor belong to. It
// changes exactly when an audit dropped them and refolded from sequence
// number 0, which is how a consumer that folds the report incrementally
// itself (package auditreg/cluster) learns that what it folded is void.
func (a *Auditor) Epoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

func (a *Auditor) audit(fresh bool) (store.ObjectAudit[uint64], error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t0 := telem.Now()
	err := a.page(fresh)
	for err == nil && a.resp.More {
		err = a.page(fresh)
	}
	a.o.c.rtt.Observe(uint64(t0), telem.Now()-t0)
	if err != nil {
		return store.ObjectAudit[uint64]{}, err
	}
	return store.ObjectAudit[uint64]{Object: a.o.name, Kind: a.o.kind, Report: a.set.View()}, nil
}

// page is one AUDIT round trip from the cursor on, folded into the set.
func (a *Auditor) page(fresh bool) error {
	o := a.o
	var epoch uint64
	err := retryBusy(func() error {
		cn := o.c.pick()
		or, err := cn.open(o.name, o.wkind, 0)
		if err != nil {
			return err
		}
		// The open (fresh or cached) pinned the boot this connection speaks
		// to; the cursor means something to that boot only.
		req := wire.AuditReq{Name: o.name, Fresh: fresh}
		if epoch = or.Epoch; epoch == a.epoch {
			req.Since = a.lsa
		}
		r, err := cn.roundTrip(wire.VerbAudit, req.Append(nil))
		if err != nil {
			return err
		}
		err = decodeResp(r, wire.VerbAudit, &a.resp)
		wire.PutBuf(r.buf)
		return err
	})
	if err != nil {
		return err
	}
	if epoch != a.epoch {
		a.epoch, a.set = epoch, core.NewAuditSet[uint64]()
	}
	// Unmask each row — the only place outside the server where reader sets
	// exist in the clear, and it requires the key.
	wire.MaskAuditRows(o.c.key, a.resp.Nonce, a.resp.Rows)
	for _, row := range a.resp.Rows {
		a.set.Add(row.Readers, row.Value)
	}
	a.lsa = a.resp.Next
	if cap(a.resp.Rows) > 64 {
		a.resp.Rows = nil // a cold audit's rows: the tail needs a handful
	}
	return nil
}
