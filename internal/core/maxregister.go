package core

import (
	"fmt"

	"auditreg/internal/handle"
	"auditreg/internal/maxreg"
	"auditreg/internal/otp"
	"auditreg/internal/probe"
	"auditreg/internal/shmem"
)

// Nonced is the value Algorithm 2 orders and keeps in M: the user value
// paired with a random nonce, compared lexicographically (first by value,
// then by nonce). The nonce introduces the "noisiness" that prevents a reader
// from inferring intermediate writeMax operations from sequence-number gaps
// (Lemma 38): consecutive observed values no longer reveal how many distinct
// user values were written in between. In R the pair is the Val and Nonce
// fields of the triple, so reads and audits never see the nonce.
type Nonced[V comparable] struct {
	// Val is the user value w.
	Val V
	// Nonce is the random nonce N appended by the writer.
	Nonce uint64
}

// MaxRegister is the auditable multi-writer, m-reader max register of
// Algorithm 2: Algorithm 1's shared state — R, SN, V, B — and its read and
// audit, plus a non-auditable max register M shared by the writers and a
// different write. The Register it runs on is unexported on purpose: a plain
// overwrite would break the max order, so the only write reachable from here
// is MaxWriter.WriteMax.
//
// Guarantees (Theorem 40): linearizable and wait-free; an audit reports
// (j, v) iff p_j has a v-effective read; writeMax operations are
// uncompromised by readers that did not read the value; reads are
// uncompromised by other readers.
//
// Construct with NewMaxRegister.
type MaxRegister[V comparable] struct {
	body *Register[V]
	less maxreg.Less[V]
	mreg maxreg.MaxReg[Nonced[V]]
}

// WithM injects the non-auditable max register substrate M (for example a
// maxreg.LockedMax for cross-checking, or a non-blocking maxreg.CASMax). It
// must hold the initial value passed to NewMaxRegister with nonce 0.
func WithM[V comparable](m maxreg.MaxReg[Nonced[V]]) Option[V] {
	return func(c *config[V]) { c.mreg = m }
}

// NewMaxRegister returns an auditable max register for m readers holding
// initial (with nonce 0), ordered by less. It takes the register's options;
// R, V and M are chosen from the value type (see New and defaultM).
func NewMaxRegister[V comparable](m int, initial V, less maxreg.Less[V], pads otp.PadSource, opts ...Option[V]) (*MaxRegister[V], error) {
	if less == nil {
		return nil, fmt.Errorf("core: ordering must not be nil")
	}
	var cfg config[V]
	for _, opt := range opts {
		opt(&cfg)
	}
	body, err := newRegister(m, initial, pads, cfg)
	if err != nil {
		return nil, err
	}
	reg := &MaxRegister[V]{body: body, less: less, mreg: cfg.mreg}
	init := Nonced[V]{Val: initial}
	if reg.mreg == nil {
		reg.mreg = defaultM(init, reg.lessNonced)
	} else if got := reg.mreg.Read(); got != init {
		return nil, fmt.Errorf("core: injected M holds %+v, want %+v", got, init)
	}
	return reg, nil
}

// defaultM picks M when none is injected, as defaultTripleReg picks R: for
// word values CASMax's dominance loop over the seqlock register, which keeps
// the pair in place, and CASMax itself otherwise.
func defaultM[V comparable](init Nonced[V], less maxreg.Less[Nonced[V]]) maxreg.MaxReg[Nonced[V]] {
	if _, ok := any(init.Val).(uint64); ok {
		return &tripleM[V]{r: defaultTripleReg(shmem.Triple[V]{Val: init.Val, Nonce: init.Nonce}), less: less}
	}
	return maxreg.NewCASMax(init, less)
}

// tripleM is M held in a TripleReg's Val and Nonce, with Seq and Bits left at
// 0, and raised by CASMax's dominance loop.
type tripleM[V comparable] struct {
	r    shmem.TripleReg[V]
	less maxreg.Less[Nonced[V]]
}

// WriteMax implements maxreg.MaxReg.
func (m *tripleM[V]) WriteMax(v Nonced[V]) {
	next := shmem.Triple[V]{Val: v.Val, Nonce: v.Nonce}
	for {
		cur := m.r.Load()
		if !m.less(nonced(cur), v) || m.r.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Read implements maxreg.MaxReg.
func (m *tripleM[V]) Read() Nonced[V] { return nonced(m.r.Load()) }

// nonced is the (Val, Nonce) pair a triple holds.
func nonced[V comparable](t shmem.Triple[V]) Nonced[V] { return Nonced[V]{Val: t.Val, Nonce: t.Nonce} }

// lessNonced orders Nonced pairs lexicographically: by user value, then by
// nonce.
func (reg *MaxRegister[V]) lessNonced(a, b Nonced[V]) bool {
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
func (reg *MaxRegister[V]) Readers() int { return reg.body.m }

// Seq returns the current announced sequence number. Diagnostic.
func (reg *MaxRegister[V]) Seq() uint64 { return reg.body.Seq() }

// Peek returns the largest value written so far without any audit effect: a
// bare read of the substrate M, the same primitive the write protocol's own
// M.read step uses. It is a serving-plane accessor (the network layer's
// SHARE-WRITE acknowledgment reports the resident write id through it); an
// effective — auditable — read must go through Reader.ReadFetch. Peek may
// run ahead of Seq: a value lands in M before its sequence number is
// announced.
func (reg *MaxRegister[V]) Peek() V { return reg.mreg.Read().Val }

// Reader returns the handle for reader j (0 <= j < m): Algorithm 1's reader,
// which returns the largest value written so far because that is what R
// holds. Not safe for concurrent use; one handle per reading process.
func (reg *MaxRegister[V]) Reader(j int, opts ...HandleOption) (*Reader[V], error) {
	return reg.body.Reader(j, opts...)
}

// Auditor returns an auditor handle with its own cumulative audit set:
// Algorithm 1's auditor. Not safe for concurrent use.
func (reg *MaxRegister[V]) Auditor(opts ...HandleOption) *Auditor[V] {
	return reg.body.Auditor(opts...)
}

// Writer returns a writer handle drawing nonces from the given source. Not
// safe for concurrent use; one handle per writing process, each with its own
// nonce source.
func (reg *MaxRegister[V]) Writer(nonces otp.NonceSource, opts ...HandleOption) (*MaxWriter[V], error) {
	if nonces == nil {
		return nil, fmt.Errorf("core: nonce source must not be nil")
	}
	cfg := handle.Apply(-1, opts)
	return &MaxWriter[V]{reg: reg, nonces: nonces, pid: cfg.PID, probe: cfg.Probe, padc: otp.NewPadCache(reg.body.pads)}, nil
}

// MaxWriter is the per-process writeMax handle (Algorithm 2 lines 22-35). Like
// the plain register's writer it memoizes pads per handle, so CAS retries do
// not re-derive them.
type MaxWriter[V comparable] struct {
	reg    *MaxRegister[V]
	nonces otp.NonceSource
	pid    int
	probe  probe.Probe
	padc   otp.PadCache
}

// Room returns nil while R's sequence number has a history row, and otherwise
// the error WriteMax returns for a value R does not dominate. It is the check
// WriteMax makes before line 24, for a caller that must be refused before it
// changes state of its own (Algorithm 3's update, before S): a plain load of
// R, not a step of the algorithm.
func (w *MaxWriter[V]) Room() error {
	reg := w.reg.body
	return reg.hist.Room(reg.r.Load().Seq)
}

// WriteMax raises the register to w if w exceeds the largest value written.
// Wait-free (Lemma 28): after the value lands in M, (R.seq, R.val) can change
// at most once before R.val dominates w, and then the retry loop is bounded
// by the readers' single fetch&xor per sequence number.
//
// Against Writer.WriteSeq: the candidate goes through M first and is re-read
// from it before the CAS, the loop exits on dominance rather than on the
// sequence number, and a consumed sequence number is announced and replaced
// instead of ending the write.
func (w *MaxWriter[V]) WriteMax(val V) error {
	reg := w.reg.body

	// Line 23: append a fresh nonce.
	v := Nonced[V]{Val: val, Nonce: w.nonces.Next()}

	// A full history refuses a write that would need a row before M sees
	// it, so Peek never reports a refused value. A plain load of R, not a
	// step of the algorithm: a concurrent writeMax can still take the last
	// row between this check and line 24 (DESIGN.md, "History capacity").
	if t := reg.r.Load(); w.reg.lessNonced(nonced(t), v) {
		if err := reg.hist.Room(t.Seq); err != nil {
			return err
		}
	}

	// Line 24: M.writeMax(v); sn <- SN.read() + 1.
	if w.probe != nil {
		w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Invoke, Prim: probe.MWrite})
	}
	w.reg.mreg.WriteMax(v)
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
		if !w.reg.lessNonced(nonced(t), v) {
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
		mval := w.reg.mreg.Read()
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Return, Prim: probe.MRead, Detail: mval})
		}

		// Lines 32-33: copy outgoing value (nonce stripped) and its
		// decrypted reader set for auditors.
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Invoke, Prim: probe.VStore})
		}
		if err := reg.hist.Store(t.Seq, t.Val); err != nil {
			return err
		}
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Return, Prim: probe.VStore})
		}

		readers := (t.Bits ^ w.padc.Mask(t.Seq)) & reg.maskM
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Invoke, Prim: probe.BSet, Detail: readers})
		}
		if err := reg.hist.Or(t.Seq, readers); err != nil {
			return err
		}
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Return, Prim: probe.BSet})
		}

		// Line 34.
		next := shmem.Triple[V]{Seq: sn, Val: mval.Val, Nonce: mval.Nonce, Bits: w.padc.Mask(sn) & reg.maskM}
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
