package maxreg

import (
	"fmt"

	"auditreg/internal/core"
	"auditreg/internal/handle"
	"auditreg/internal/otp"
	"auditreg/internal/probe"
	"auditreg/internal/shmem"
	"auditreg/internal/unbounded"
)

// Nonced is the value actually stored by Algorithm 2: the user value paired
// with a random nonce, ordered lexicographically (first by value, then by
// nonce). The nonce introduces the "noisiness" that prevents a reader from
// inferring intermediate writeMax operations from sequence-number gaps
// (Lemma 38): consecutive observed values no longer reveal how many distinct
// user values were written in between.
type Nonced[V comparable] struct {
	// Val is the user value w.
	Val V
	// Nonce is the random nonce N appended by the writer.
	Nonce uint64
}

// Auditable is the auditable multi-writer, m-reader max register of
// Algorithm 2. Its shared state mirrors Algorithm 1 — R, SN, V, B — plus a
// non-auditable max register M shared by the writers.
//
// Guarantees (Theorem 40): linearizable and wait-free; an audit reports
// (j, v) iff p_j has a v-effective read; writeMax operations are
// uncompromised by readers that did not read the value; reads are
// uncompromised by other readers.
//
// Construct with NewAuditable.
type Auditable[V comparable] struct {
	m     int
	maskM uint64
	pads  otp.PadSource
	less  Less[V]

	r    shmem.TripleReg[Nonced[V]]
	sn   shmem.SeqReg
	mreg MaxReg[Nonced[V]]
	vals *unbounded.Array[V]
	bits *unbounded.BitTable
}

// AuditableOption configures an Auditable max register.
type AuditableOption[V comparable] func(*auditableConfig[V])

type auditableConfig[V comparable] struct {
	capacity int
	mreg     MaxReg[Nonced[V]]
	tripleR  shmem.TripleReg[Nonced[V]]
	seqReg   shmem.SeqReg
}

// WithAuditableCapacity bounds the recorded history length.
func WithAuditableCapacity[V comparable](n int) AuditableOption[V] {
	return func(c *auditableConfig[V]) { c.capacity = n }
}

// WithM injects the non-auditable max register substrate M. It must be
// initialized to the Nonced initial value passed to NewAuditable.
func WithM[V comparable](m MaxReg[Nonced[V]]) AuditableOption[V] {
	return func(c *auditableConfig[V]) { c.mreg = m }
}

// WithAuditableTripleReg injects the backend of R (e.g. a LockedTriple for
// cross-checking). It must hold (0, initial, pads.Mask(0)).
func WithAuditableTripleReg[V comparable](r shmem.TripleReg[Nonced[V]]) AuditableOption[V] {
	return func(c *auditableConfig[V]) { c.tripleR = r }
}

// WithAuditableSeqReg injects the backend of SN. It must hold 0.
func WithAuditableSeqReg[V comparable](sn shmem.SeqReg) AuditableOption[V] {
	return func(c *auditableConfig[V]) { c.seqReg = sn }
}

// NewAuditable returns an auditable max register for m readers holding
// initial (with nonce 0), ordered by less.
func NewAuditable[V comparable](m int, initial V, less Less[V], pads otp.PadSource, opts ...AuditableOption[V]) (*Auditable[V], error) {
	if m < 1 || m > shmem.MaxReaders {
		return nil, fmt.Errorf("maxreg: reader count m must be in [1, %d], got %d", shmem.MaxReaders, m)
	}
	if less == nil {
		return nil, fmt.Errorf("maxreg: ordering must not be nil")
	}
	if pads == nil {
		return nil, fmt.Errorf("maxreg: pad source must not be nil")
	}
	var cfg auditableConfig[V]
	for _, opt := range opts {
		opt(&cfg)
	}

	vals, err := unbounded.NewArray[V](cfg.capacity)
	if err != nil {
		return nil, err
	}
	bits, err := unbounded.NewBitTable(cfg.capacity)
	if err != nil {
		return nil, err
	}

	reg := &Auditable[V]{
		m:     m,
		maskM: otp.MaskBits(m),
		pads:  pads,
		less:  less,
		vals:  vals,
		bits:  bits,
	}
	init := Nonced[V]{Val: initial, Nonce: 0}
	initTriple := shmem.Triple[Nonced[V]]{Seq: 0, Val: init, Bits: pads.Mask(0) & reg.maskM}

	switch {
	case cfg.tripleR != nil:
		if got := cfg.tripleR.Load(); got != initTriple {
			return nil, fmt.Errorf("maxreg: injected R holds %+v, want %+v", got, initTriple)
		}
		reg.r = cfg.tripleR
	default:
		reg.r = shmem.NewPtrTriple(initTriple)
	}
	switch {
	case cfg.seqReg != nil:
		if got := cfg.seqReg.Load(); got != 0 {
			return nil, fmt.Errorf("maxreg: injected SN holds %d, want 0", got)
		}
		reg.sn = cfg.seqReg
	default:
		reg.sn = &shmem.AtomicSeq{}
	}
	switch {
	case cfg.mreg != nil:
		if got := cfg.mreg.Read(); got != init {
			return nil, fmt.Errorf("maxreg: injected M holds %+v, want %+v", got, init)
		}
		reg.mreg = cfg.mreg
	default:
		reg.mreg = NewCASMax(init, reg.lessNonced)
	}
	return reg, nil
}

// lessNonced orders Nonced pairs lexicographically: by user value, then by
// nonce.
func (reg *Auditable[V]) lessNonced(a, b Nonced[V]) bool {
	switch {
	case reg.less(a.Val, b.Val):
		return true
	case reg.less(b.Val, a.Val):
		return false
	default:
		return a.Nonce < b.Nonce
	}
}

// Readers returns the register's reader count m.
func (reg *Auditable[V]) Readers() int { return reg.m }

// Seq returns the current announced sequence number. Diagnostic.
func (reg *Auditable[V]) Seq() uint64 { return reg.sn.Load() }

// Peek returns the largest value written so far without any audit effect: a
// bare read of the substrate M, the same primitive the write protocol's own
// M.read step uses. It is a serving-plane accessor (the network layer's
// SHARE-WRITE acknowledgment reports the resident write id through it); an
// effective — auditable — read must go through Reader.ReadFetch. Peek may
// run ahead of Seq: a value lands in M before its sequence number is
// announced.
func (reg *Auditable[V]) Peek() V { return reg.mreg.Read().Val }

// Reader returns the handle for reader j (0 <= j < m). Not safe for
// concurrent use; one handle per reading process.
func (reg *Auditable[V]) Reader(j int, opts ...core.HandleOption) (*Reader[V], error) {
	if j < 0 || j >= reg.m {
		return nil, fmt.Errorf("maxreg: reader index %d out of range [0, %d)", j, reg.m)
	}
	cfg := handle.Apply(j, opts)
	return &Reader[V]{reg: reg, j: j, pid: cfg.PID, probe: cfg.Probe, prevSN: ^uint64(0)}, nil
}

// Writer returns a writer handle drawing nonces from the given source. Not
// safe for concurrent use; one handle per writing process, each with its own
// nonce source.
func (reg *Auditable[V]) Writer(nonces otp.NonceSource, opts ...core.HandleOption) (*Writer[V], error) {
	if nonces == nil {
		return nil, fmt.Errorf("maxreg: nonce source must not be nil")
	}
	cfg := handle.Apply(-1, opts)
	return &Writer[V]{reg: reg, nonces: nonces, pid: cfg.PID, probe: cfg.Probe, padc: otp.NewPadCache(reg.pads)}, nil
}

// Auditor returns an auditor handle with its own cumulative audit set. Not
// safe for concurrent use.
func (reg *Auditable[V]) Auditor(opts ...core.HandleOption) *Auditor[V] {
	cfg := handle.Apply(-1, opts)
	return &Auditor[V]{reg: reg, pid: cfg.PID, probe: cfg.Probe, padc: otp.NewPadCache(reg.pads), set: core.NewAuditSet[V]()}
}

// Reader is the per-process read handle of the auditable max register. The
// algorithm is identical to Algorithm 1's read — the silent-read cache, the
// fetch&xor, the helping CAS on SN — except that the nonce is stripped from
// returned values.
type Reader[V comparable] struct {
	reg   *Auditable[V]
	j     int
	pid   int
	probe probe.Probe

	prevSN  uint64
	prevVal V
}

// Index returns the reader's index j.
func (rd *Reader[V]) Index() int { return rd.j }

// Read returns the largest value written so far. Wait-free; effective (and
// auditable) as soon as the fetch&xor takes effect. As in core.Reader, Read
// is ReadFetch followed, when a fetch happened, by Announce.
func (rd *Reader[V]) Read() V {
	v, seq, fetched := rd.ReadFetch()
	if fetched {
		rd.Announce(seq)
	}
	return v
}

// ReadFetch performs the fetch half of a read: the silent-read check and the
// fetch&xor on R, without the helping CAS on SN. fetched reports whether a
// fetch&xor was applied; a silent read returns the cached value. See
// core.Reader.ReadFetch.
func (rd *Reader[V]) ReadFetch() (val V, seq uint64, fetched bool) {
	reg := rd.reg

	if rd.probe != nil {
		rd.probe.Emit(probe.Event{PID: rd.pid, Kind: probe.Invoke, Prim: probe.SNRead})
	}
	sn := reg.sn.Load()
	if rd.probe != nil {
		rd.probe.Emit(probe.Event{PID: rd.pid, Kind: probe.Return, Prim: probe.SNRead, Detail: sn})
	}
	if sn == rd.prevSN {
		return rd.prevVal, rd.prevSN, false
	}

	if rd.probe != nil {
		rd.probe.Emit(probe.Event{PID: rd.pid, Kind: probe.Invoke, Prim: probe.RXor})
	}
	t := reg.r.FetchXor(uint64(1) << uint(rd.j))
	if rd.probe != nil {
		rd.probe.Emit(probe.Event{PID: rd.pid, Kind: probe.Return, Prim: probe.RXor, Detail: t})
	}

	rd.prevSN, rd.prevVal = t.Seq, t.Val.Val
	return t.Val.Val, t.Seq, true
}

// Announce performs the announce half of a read: help complete the seq-th
// writeMax by advancing SN from seq-1 to seq. As in core.Reader.Announce,
// only the seq this reader's latest ReadFetch fetched is accepted; anything
// else is ignored, so untrusted remote announces cannot forge SN advances.
func (rd *Reader[V]) Announce(seq uint64) bool {
	if seq != rd.prevSN || seq == ^uint64(0) {
		return false
	}
	if rd.probe != nil {
		rd.probe.Emit(probe.Event{PID: rd.pid, Kind: probe.Invoke, Prim: probe.SNCAS})
	}
	ok := rd.reg.sn.CompareAndSwap(seq-1, seq)
	if rd.probe != nil {
		rd.probe.Emit(probe.Event{PID: rd.pid, Kind: probe.Return, Prim: probe.SNCAS, Detail: ok})
	}
	return ok
}

// Writer is the per-process writeMax handle (Algorithm 2 lines 22-35). Like
// the plain register's writer it memoizes pads per handle, so CAS retries do
// not re-derive them.
type Writer[V comparable] struct {
	reg    *Auditable[V]
	nonces otp.NonceSource
	pid    int
	probe  probe.Probe
	padc   otp.PadCache
}

// WriteMax raises the register to w if w exceeds the largest value written.
// Wait-free (Lemma 28): after the value lands in M, (R.seq, R.val) can change
// at most once before R.val dominates w, and then the retry loop is bounded
// by the readers' single fetch&xor per sequence number.
func (w *Writer[V]) WriteMax(val V) error {
	reg := w.reg

	// Line 23: append a fresh nonce.
	v := Nonced[V]{Val: val, Nonce: w.nonces.Next()}

	// Line 24: M.writeMax(v); sn <- SN.read() + 1.
	if w.probe != nil {
		w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Invoke, Prim: probe.MWrite})
	}
	reg.mreg.WriteMax(v)
	if w.probe != nil {
		w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Return, Prim: probe.MWrite})
	}

	if w.probe != nil {
		w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Invoke, Prim: probe.SNRead})
	}
	sn := reg.sn.Load() + 1
	if w.probe != nil {
		w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Return, Prim: probe.SNRead, Detail: sn - 1})
	}

	for {
		// Line 26: (lsn, lval, bits) <- R.read().
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Invoke, Prim: probe.RRead})
		}
		t := reg.r.Load()
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Return, Prim: probe.RRead, Detail: t})
		}

		// Line 27: a value >= v is already installed.
		if !reg.lessNonced(t.Val, v) {
			sn = t.Seq
			break
		}

		// Lines 28-30: the target sequence number was consumed by a
		// concurrent writeMax; help announce it and take a fresh one.
		if t.Seq >= sn {
			if w.probe != nil {
				w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Invoke, Prim: probe.SNCAS})
			}
			ok := reg.sn.CompareAndSwap(sn-1, sn)
			if w.probe != nil {
				w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Return, Prim: probe.SNCAS, Detail: ok})
			}

			if w.probe != nil {
				w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Invoke, Prim: probe.SNRead})
			}
			sn = reg.sn.Load() + 1
			if w.probe != nil {
				w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Return, Prim: probe.SNRead, Detail: sn - 1})
			}
			continue
		}

		// Line 31: mval <- M.read(); the candidate to install.
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Invoke, Prim: probe.MRead})
		}
		mval := reg.mreg.Read()
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Return, Prim: probe.MRead, Detail: mval})
		}

		// Lines 32-33: copy outgoing value (nonce stripped) and its
		// decrypted reader set for auditors.
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Invoke, Prim: probe.VStore})
		}
		if err := reg.vals.Store(t.Seq, t.Val.Val); err != nil {
			return err
		}
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Return, Prim: probe.VStore})
		}

		readers := (t.Bits ^ w.padc.Mask(t.Seq)) & reg.maskM
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Invoke, Prim: probe.BSet, Detail: readers})
		}
		if err := reg.bits.Or(t.Seq, readers); err != nil {
			return err
		}
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Return, Prim: probe.BSet})
		}

		// Line 34.
		next := shmem.Triple[Nonced[V]]{Seq: sn, Val: mval, Bits: w.padc.Mask(sn) & reg.maskM}
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Invoke, Prim: probe.RCAS})
		}
		ok := reg.r.CompareAndSwap(t, next)
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Return, Prim: probe.RCAS, Detail: ok})
		}
		if ok {
			break
		}
	}

	// Line 35.
	if w.probe != nil {
		w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Invoke, Prim: probe.SNCAS})
	}
	ok := reg.sn.CompareAndSwap(sn-1, sn)
	if w.probe != nil {
		w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Return, Prim: probe.SNCAS, Detail: ok})
	}
	return nil
}

// Auditor is the per-process audit handle; the code is Algorithm 1's audit
// with nonces stripped from reported values. The audit set is a
// core.AuditSet: deduplicated through per-value reader bitmasks, reported as
// zero-copy snapshots.
type Auditor[V comparable] struct {
	reg   *Auditable[V]
	pid   int
	probe probe.Probe
	padc  otp.PadCache

	lsa uint64
	set core.AuditSet[V]

	// The current row as the last audit decoded it, kept for Rows.
	rval  V
	rbits uint64
}

// Audit reports the set of pairs (j, v) such that p_j has a v-effective read
// linearized before the audit. Cumulative over the auditor's lifetime.
func (a *Auditor[V]) Audit() (core.Report[V], error) {
	reg := a.reg

	if a.probe != nil {
		a.probe.Emit(probe.Event{PID: a.pid, Kind: probe.Invoke, Prim: probe.RRead})
	}
	t := reg.r.Load()
	if a.probe != nil {
		a.probe.Emit(probe.Event{PID: a.pid, Kind: probe.Return, Prim: probe.RRead, Detail: t})
	}

	a.set.Reserve(t.Seq - a.lsa)
	for s := a.lsa; s < t.Seq; s++ {
		if a.probe != nil {
			a.probe.Emit(probe.Event{PID: a.pid, Kind: probe.Invoke, Prim: probe.VLoad})
		}
		val, ok := reg.vals.Load(s)
		if a.probe != nil {
			a.probe.Emit(probe.Event{PID: a.pid, Kind: probe.Return, Prim: probe.VLoad, Detail: val})
		}
		if !ok {
			return core.Report[V]{}, fmt.Errorf("maxreg: audit found uninitialized V[%d]; history capacity was exceeded", s)
		}
		if a.probe != nil {
			a.probe.Emit(probe.Event{PID: a.pid, Kind: probe.Invoke, Prim: probe.BRow})
		}
		row := reg.bits.Row(s)
		if a.probe != nil {
			a.probe.Emit(probe.Event{PID: a.pid, Kind: probe.Return, Prim: probe.BRow, Detail: row})
		}
		a.set.Add(row&reg.maskM, val)
	}
	a.rval, a.rbits = t.Val.Val, (t.Bits^a.padc.Mask(t.Seq))&reg.maskM
	a.set.Add(a.rbits, a.rval)

	a.lsa = t.Seq
	if a.probe != nil {
		a.probe.Emit(probe.Event{PID: a.pid, Kind: probe.Invoke, Prim: probe.SNCAS})
	}
	ok := reg.sn.CompareAndSwap(t.Seq-1, t.Seq)
	if a.probe != nil {
		a.probe.Emit(probe.Event{PID: a.pid, Kind: probe.Return, Prim: probe.SNCAS, Detail: ok})
	}

	return a.set.View(), nil
}

// Rows replays what the audits so far scanned to a party that keeps its own
// cursor and set: history rows [since, lsa), at most limit rows in all, then
// the current row as the last audit decoded it. See core.Auditor.Rows.
func (a *Auditor[V]) Rows(since uint64, limit int, emit func(val V, readers uint64)) (next uint64, more bool, err error) {
	if since > a.lsa {
		return since, false, nil
	}
	s := since
	for ; s < a.lsa && limit > 0; s, limit = s+1, limit-1 {
		val, ok := a.reg.vals.Load(s)
		if !ok {
			return s, false, fmt.Errorf("maxreg: audit found uninitialized V[%d]; history capacity was exceeded", s)
		}
		emit(val, a.reg.bits.Row(s)&a.reg.maskM)
	}
	if limit == 0 {
		return s, true, nil
	}
	emit(a.rval, a.rbits)
	return a.lsa, false, nil
}
