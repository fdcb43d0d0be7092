package core

import (
	"auditreg/internal/otp"
	"auditreg/internal/probe"
	"auditreg/internal/shmem"
)

// Writer is the per-process write handle (code for writer p_i, Algorithm 1
// lines 7-15). Writers share the pad sequence with auditors: before
// installing a new value they decrypt the reader set of the value they
// overwrite and copy it, with the value, into the audit arrays B and V.
//
// The handle carries a pad memo (otp.PadCache), so the CAS retry loop pays
// for each pad once no matter how many readers defeat its CAS attempts.
//
// Not safe for concurrent use: it models a single sequential process.
// Distinct Writer handles may write concurrently.
type Writer[V comparable] struct {
	reg   *Register[V]
	pid   int
	probe probe.Probe
	padc  otp.PadCache
}

// Write sets the register's value to v. It is wait-free in the paper's
// base-object model: the retry loop runs at most m+1 iterations (Lemma 2),
// because a CAS on R can only be defeated by one of the m readers' single
// fetch&xor per sequence number or by a concurrent write that lets this one
// terminate as overwritten ("silent"). On the default word-sized backend the
// base objects themselves trade strict wait-freedom for allocation-freedom;
// see the package comment.
//
// The only possible error is history-capacity exhaustion (see WithCapacity).
func (w *Writer[V]) Write(v V) error {
	_, _, err := w.WriteSeq(v)
	return err
}

// WriteSeq performs Write and additionally reports where the write landed in
// the register's history. installed is true when this write's CAS placed
// (seq, v) into R itself; then seq is the write's sequence number, and
// installed sequence numbers are exactly the consecutive integers 1, 2, 3...
// (a successful CAS always advances R.seq by one). installed is false when a
// concurrent write absorbed this one — the write is linearized immediately
// before the write that installed seq, so v was never observable in R and no
// read can ever return it.
//
// Durability layers use the pair to journal writes in replayable order:
// installed writes replayed in seq order reconstruct the register history,
// and absorbed writes may be dropped without any observer noticing.
func (w *Writer[V]) WriteSeq(v V) (seq uint64, installed bool, err error) {
	reg := w.reg

	// Line 8: sn <- SN.read() + 1.
	if w.probe != nil {
		w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Invoke, Prim: probe.SNRead})
	}
	sn := reg.sn.Load() + 1
	if w.probe != nil {
		w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Return, Prim: probe.SNRead, Detail: sn - 1})
	}

	for {
		// Line 10: (lsn, lval, bits) <- R.read().
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Invoke, Prim: probe.RRead})
		}
		t := reg.r.Load()
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Return, Prim: probe.RRead, Detail: t})
		}

		// Line 11: a concurrent write already installed sn or later;
		// this write may be linearized immediately before it.
		if t.Seq >= sn {
			seq, installed = t.Seq, false
			break
		}

		// Line 12: copy the outgoing value for auditors.
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Invoke, Prim: probe.VStore})
		}
		if err := reg.hist.Store(t.Seq, t.Val); err != nil {
			return 0, false, err
		}
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Return, Prim: probe.VStore})
		}

		// Line 13: decrypt the tracking bits and copy the reader set.
		readers := (t.Bits ^ w.padc.Mask(t.Seq)) & reg.maskM
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Invoke, Prim: probe.BSet, Detail: readers})
		}
		if err := reg.hist.Or(t.Seq, readers); err != nil {
			return 0, false, err
		}
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Return, Prim: probe.BSet})
		}

		// Line 14: install (sn, v, fresh empty encrypted reader set).
		next := shmem.Triple[V]{Seq: sn, Val: v, Bits: w.padc.Mask(sn) & reg.maskM}
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Invoke, Prim: probe.RCAS})
		}
		ok := reg.r.CompareAndSwap(t, next)
		if w.probe != nil {
			w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Return, Prim: probe.RCAS, Detail: ok})
		}
		if ok {
			seq, installed = sn, true
			break
		}
	}

	// Line 15: announce the new sequence number.
	if w.probe != nil {
		w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Invoke, Prim: probe.SNCAS})
	}
	ok := reg.sn.CompareAndSwap(sn-1, sn)
	if w.probe != nil {
		w.probe.Emit(probe.Event{PID: w.pid, Kind: probe.Return, Prim: probe.SNCAS, Detail: ok})
	}
	return seq, installed, nil
}
