package core

import (
	"fmt"

	"auditreg/internal/otp"
	"auditreg/internal/probe"
)

// Auditor is the per-process audit handle (Algorithm 1 lines 16-22, which
// are also Algorithm 2's: a MaxRegister hands out this type). It
// accumulates the audit set A across calls and remembers the latest audited
// sequence number lsa, so successive audits scan only the new suffix of the
// history plus the (always re-decoded) current value. See AuditSet for how A
// deduplicates and how reports avoid copying.
//
// Not safe for concurrent use: it models a single sequential process.
// Distinct Auditor handles may audit concurrently, each with its own A.
type Auditor[V comparable] struct {
	reg   *Register[V]
	pid   int
	probe probe.Probe
	padc  otp.PadCache

	lsa uint64
	set AuditSet[V]

	// The current row as the last audit decoded it (line 21), kept for Rows.
	rval  V
	rbits uint64
}

// Audit reports which values have been read and by whom: the set of pairs
// (reader, value) such that the reader has an effective read of the value
// linearized before this audit (Theorem 8). The report is cumulative over the
// auditor's lifetime.
//
// The audit is linearized at its read of R. The only possible error is an
// uninitialized history slot, which can occur only after a writer hit the
// history-capacity bound.
func (a *Auditor[V]) Audit() (Report[V], error) {
	if err := a.AuditRows(nil); err != nil {
		return Report[V]{}, err
	}
	return a.set.View(), nil
}

// AuditRows is Audit for a caller that keeps the cumulative set itself: each
// decrypted row, history rows [lsa, rsn) then the current row as Rows replays
// them, goes to emit instead of into the handle's set (emit nil: Audit). A
// handle is driven through one of the two, never both.
func (a *Auditor[V]) AuditRows(emit func(val V, readers uint64)) error {
	reg := a.reg

	// Line 17: (rsn, rval, rbits) <- R.read(). The audit linearizes here.
	if a.probe != nil {
		a.probe.Emit(probe.Event{PID: a.pid, Kind: probe.Invoke, Prim: probe.RRead})
	}
	t := reg.r.Load()
	if a.probe != nil {
		a.probe.Emit(probe.Event{PID: a.pid, Kind: probe.Return, Prim: probe.RRead, Detail: t})
	}

	// Lines 18-20: collect readers of past values from V and B. The scan
	// starts at lsa, not 0: rows below lsa were already folded into A.
	if emit == nil {
		a.set.Reserve(int(t.Seq - a.lsa))
	}
	for s := a.lsa; s < t.Seq; {
		// V and B are read a block at a time: one directory lookup per
		// block of rows, not per row, finds both.
		blk := reg.hist.Block(s)
		for end := min(t.Seq, blk.End(s)); s < end; s++ {
			if a.probe != nil {
				a.probe.Emit(probe.Event{PID: a.pid, Kind: probe.Invoke, Prim: probe.VLoad})
			}
			val, ok := blk.Load(s)
			if a.probe != nil {
				a.probe.Emit(probe.Event{PID: a.pid, Kind: probe.Return, Prim: probe.VLoad, Detail: val})
			}
			if !ok {
				return fmt.Errorf("core: audit found uninitialized V[%d]; history capacity was exceeded", s)
			}
			if a.probe != nil {
				a.probe.Emit(probe.Event{PID: a.pid, Kind: probe.Invoke, Prim: probe.BRow})
			}
			row := blk.Row(s)
			if a.probe != nil {
				a.probe.Emit(probe.Event{PID: a.pid, Kind: probe.Return, Prim: probe.BRow, Detail: row})
			}
			if emit == nil {
				a.set.Add(row&reg.maskM, val)
			} else {
				emit(val, row&reg.maskM)
			}
		}
	}

	// Line 21: decrypt the current value's tracking bits.
	a.rval, a.rbits = t.Val, (t.Bits^a.padc.Mask(t.Seq))&reg.maskM
	if emit == nil {
		a.set.Add(a.rbits, a.rval)
	} else {
		emit(a.rval, a.rbits)
	}

	// Line 22: advance the cursor to rsn (not rsn+1: more readers may
	// still join the current sequence number) and help complete the
	// rsn-th write before returning, ending any transition phase.
	a.lsa = t.Seq
	if a.probe != nil {
		a.probe.Emit(probe.Event{PID: a.pid, Kind: probe.Invoke, Prim: probe.SNCAS})
	}
	ok := reg.sn.CompareAndSwap(t.Seq-1, t.Seq)
	if a.probe != nil {
		a.probe.Emit(probe.Event{PID: a.pid, Kind: probe.Return, Prim: probe.SNCAS, Detail: ok})
	}
	return nil
}

// Rows replays what the audits so far scanned to a party that keeps its own
// cursor and cumulative set — a remote auditor, whose lsa is since: history
// rows [since, lsa), at most limit rows in all, then the current row as the
// last audit decoded it. What is emitted depends on the sequence range alone,
// never on who read since the caller last looked: a history row is final, and
// the current row is re-sent whole every time, as line 21 re-decodes it. It
// returns the cursor to ask from next and whether limit cut the replay short
// (the current row is then still to come).
func (a *Auditor[V]) Rows(since uint64, limit int, emit func(val V, readers uint64)) (next uint64, more bool, err error) {
	if since > a.lsa {
		return since, false, nil
	}
	s := since
	for s < a.lsa && limit > 0 {
		blk := a.reg.hist.Block(s)
		for end := min(a.lsa, blk.End(s)); s < end && limit > 0; s, limit = s+1, limit-1 {
			val, ok := blk.Load(s)
			if !ok {
				return s, false, fmt.Errorf("core: audit found uninitialized V[%d]; history capacity was exceeded", s)
			}
			emit(val, blk.Row(s)&a.reg.maskM)
		}
	}
	if limit == 0 {
		return s, true, nil
	}
	emit(a.rval, a.rbits)
	return a.lsa, false, nil
}
