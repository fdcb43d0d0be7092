package core

import "auditreg/internal/probe"

// Reader is the per-process read handle (code for reader p_j, Algorithm 1
// lines 1-6; Algorithm 2's read is the same code, so a MaxRegister hands out
// this type too — the nonce stays behind in R). It caches the latest value read (prev_val) and its sequence
// number (prev_sn); a read returns from the cache — a "silent" read — when
// SN shows no new write, which is what guarantees each reader applies at most
// one fetch&xor to R per sequence number (Lemma 17) and hence that no pad is
// observed twice by the same reader.
//
// A silent read costs one atomic load and zero heap allocations; probe event
// construction is guarded so an uninstrumented handle pays nothing for it.
//
// Not safe for concurrent use: it models a single sequential process.
type Reader[V comparable] struct {
	reg   *Register[V]
	j     int
	pid   int
	probe probe.Probe

	prevSN  uint64
	prevVal V
}

// Index returns the reader's index j.
func (rd *Reader[V]) Index() int { return rd.j }

// Read returns the register's current value. It is wait-free in the paper's
// base-object model: at most three primitive steps (on the default
// word-sized backend the base objects trade strict wait-freedom for
// allocation-freedom; see the package comment). The read is effective — and
// auditable — the instant the fetch&xor on R takes effect (Claim 4);
// everything after that is local or helping.
//
// Read is exactly ReadFetch followed, when a fetch happened, by Announce:
// the split is what a remote reader drives over the wire (package
// auditreg/server), one message per half.
func (rd *Reader[V]) Read() V {
	v, seq, fetched := rd.ReadFetch()
	if fetched {
		rd.Announce(seq)
	}
	return v
}

// ReadFetch performs the shared-memory fetch half of a read: lines 2-4 and
// the cache update of line 6, but not the helping CAS of line 5. It returns
// the value, its sequence number, and whether a fetch&xor was applied to R —
// false means the read was silent (no new write since this reader's latest
// read) and touched nothing but SN. After a fetched ReadFetch the caller
// should invoke Announce(seq) to help complete the seq-th write; skipping it
// never violates safety (announcing is pure helping), it only delays the
// sequence-number announcement until the next writer or auditor step.
func (rd *Reader[V]) ReadFetch() (val V, seq uint64, fetched bool) {
	reg := rd.reg

	// Line 2: sn <- SN.read()
	if rd.probe != nil {
		rd.probe.Emit(probe.Event{PID: rd.pid, Kind: probe.Invoke, Prim: probe.SNRead})
	}
	sn := reg.sn.Load()
	if rd.probe != nil {
		rd.probe.Emit(probe.Event{PID: rd.pid, Kind: probe.Return, Prim: probe.SNRead, Detail: sn})
	}

	// Line 3: no new write since the latest read by this process.
	if sn == rd.prevSN {
		return rd.prevVal, rd.prevSN, false
	}

	// Line 4: fetch the current value and insert j into the encrypted
	// reader set, in one atomic step.
	if rd.probe != nil {
		rd.probe.Emit(probe.Event{PID: rd.pid, Kind: probe.Invoke, Prim: probe.RXor})
	}
	t := reg.r.FetchXor(uint64(1) << uint(rd.j))
	if rd.probe != nil {
		rd.probe.Emit(probe.Event{PID: rd.pid, Kind: probe.Return, Prim: probe.RXor, Detail: t})
	}

	// Line 6.
	rd.prevSN, rd.prevVal = t.Seq, t.Val
	return t.Val, t.Seq, true
}

// Announce performs the announce half of a read (line 5): help complete the
// seq-th write by advancing SN from seq-1 to seq. Only the sequence number
// this reader's latest ReadFetch actually fetched may be announced — any
// other seq is ignored (returning false) without touching SN. The guard is
// what makes announcing safe to expose to untrusted callers (the network
// layer's READ-ANNOUNCE verb): a fetched seq was read from R, so a write
// with that seq exists and the CAS is the paper's helping step, while a
// forged SN advance past the last real write would defeat every reader's
// silent-read check and let them re-fetch&xor the same triple, toggling
// their tracking bits off the audit. Dropping an announce is always safe —
// it is pure helping — so rejecting is never a correctness problem for the
// caller. It reports whether the CAS succeeded (false also when another
// process already announced — purely diagnostic).
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

// Last returns the reader's cached value and sequence number, and whether the
// cache is populated (i.e. whether the reader has ever read). Diagnostic.
func (rd *Reader[V]) Last() (val V, seq uint64, ok bool) {
	if rd.prevSN == ^uint64(0) {
		var zero V
		return zero, 0, false
	}
	return rd.prevVal, rd.prevSN, true
}
