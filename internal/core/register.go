// Package core implements Algorithms 1 and 2 of "Auditing without Leaks
// Despite Curiosity" (Attiya et al., PODC 2025): a wait-free, linearizable,
// multi-writer multi-reader auditable register, and the auditable max
// register, which is the same object with a different write (MaxRegister).
//
// The register guarantees, beyond linearizability of read/write/audit:
//
//   - Effective reads are audited (Lemma 5): a read is linearized — and hence
//     reported by every later audit — as soon as its fetch&xor on R takes
//     effect, even if the reading process never completes the operation. This
//     defeats the crash-simulating attack of Section 3.1.
//   - Reads are uncompromised by other readers (Lemma 7): reader sets stored
//     in R are encrypted with one-time pads known only to writers and
//     auditors, so a curious reader learns nothing about other readers.
//   - Writes are uncompromised by readers (Lemma 6): a reader learns a value
//     only through a fetch&xor on R that makes one of its own reads
//     effective — at which point that read is itself audited.
//
// Shared state, as in the paper's pseudo-code:
//
//	R  — a TripleReg holding (seq, value, nonce, encrypted reader set);
//	     the nonce is Algorithm 2's and stays 0 under Algorithm 1
//	SN — a SeqReg holding the announced sequence number
//	V  — unbounded array of past values, indexed by sequence number
//	B  — unbounded bit table of decrypted past reader sets
//
// Process handles are cheap and single-goroutine: create one Reader per
// reading process (it carries the prev_sn/prev_val cache), one Writer per
// writing process, one Auditor per auditing process (it carries the audit
// set A and the cursor lsa). The Register itself is safe for concurrent use
// through any number of handles. A MaxRegister hands out the very same Reader
// and Auditor; only its writer differs.
//
// One deviation from the paper's model is opt-out rather than opt-in: for
// word-sized values R and a max register's M default to the allocation-free
// seqlock backend, which is linearizable but not strictly wait-free — a
// mutator preempted inside its few-instruction critical section briefly
// delays other processes' steps on R or M. The paper's per-operation step
// bounds are unchanged; only the assumption that every base-object primitive
// completes regardless of other processes' speed is weakened to the scheduler
// not parking a process inside those few instructions indefinitely. Inject
// shmem.NewPtrTriple via WithTripleReg and a maxreg.CASMax via WithM to
// restore non-blocking base objects at one heap allocation per mutation.
package core

import (
	"fmt"

	"auditreg/internal/handle"
	"auditreg/internal/maxreg"
	"auditreg/internal/otp"
	"auditreg/internal/probe"
	"auditreg/internal/shmem"
	"auditreg/internal/unbounded"
)

// MaxReaders is the largest supported number of readers m.
const MaxReaders = shmem.MaxReaders

// Register is an auditable multi-writer, m-reader register over values of
// type V. Construct with New.
type Register[V comparable] struct {
	m     int
	maskM uint64
	pads  otp.PadSource

	r    shmem.TripleReg[V]
	sn   shmem.SeqReg
	hist *unbounded.History[V] // V and B, row by row
}

// defaultTripleReg picks the backend for R when none is injected: the
// allocation-free seqlock register for word-sized values, the lock-free
// pointer register otherwise. See shmem.SeqlockTriple and the package doc
// for the wait-freedom trade this makes.
func defaultTripleReg[V comparable](init shmem.Triple[V]) shmem.TripleReg[V] {
	if i64, ok := any(init).(shmem.Triple[uint64]); ok {
		if r, ok := any(shmem.NewSeqlockTriple(i64)).(shmem.TripleReg[V]); ok {
			return r
		}
	}
	return shmem.NewPtrTriple(init)
}

// Option configures a Register.
type Option[V comparable] func(*config[V])

type config[V comparable] struct {
	tripleReg shmem.TripleReg[V]
	seqReg    shmem.SeqReg
	mreg      maxreg.MaxReg[Nonced[V]]
	capacity  int
}

// WithTripleReg injects a custom backend for the register R (for example a
// shmem.NewPtrTriple for strictly wait-free base objects, a
// shmem.LockedTriple for cross-checking, or a scheduler-instrumented
// register). The backend must be initialized to the triple
// (0, initial, 0, pads.Mask(0)); New verifies this.
func WithTripleReg[V comparable](r shmem.TripleReg[V]) Option[V] {
	return func(c *config[V]) { c.tripleReg = r }
}

// WithSeqReg injects a custom backend for the register SN. It must hold 0.
func WithSeqReg[V comparable](sn shmem.SeqReg) Option[V] {
	return func(c *config[V]) { c.seqReg = sn }
}

// WithCapacity bounds the register's audit history to n installed writes,
// rounded up to a multiple of 1,024 (0: unbounded.DefaultCapacity). The next
// write is refused before it changes R, with an error wrapping
// unbounded.ErrCapacity; reads and audits carry on over the history. The
// bound costs nothing up front: the history allocates as writes reach it.
func WithCapacity[V comparable](n int) Option[V] {
	return func(c *config[V]) { c.capacity = n }
}

// New returns an auditable register for m readers (1 <= m <= MaxReaders)
// with the given initial value. The pad source embodies the shared secret of
// writers and auditors; handing it to readers would void the leak-freedom
// guarantees.
func New[V comparable](m int, initial V, pads otp.PadSource, opts ...Option[V]) (*Register[V], error) {
	var cfg config[V]
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.mreg != nil {
		return nil, fmt.Errorf("core: WithM configures a max register; a plain register has no M")
	}
	return newRegister(m, initial, pads, cfg)
}

// newRegister builds the shared state both algorithms run on.
func newRegister[V comparable](m int, initial V, pads otp.PadSource, cfg config[V]) (*Register[V], error) {
	if m < 1 || m > MaxReaders {
		return nil, fmt.Errorf("core: reader count m must be in [1, %d], got %d", MaxReaders, m)
	}
	if pads == nil {
		return nil, fmt.Errorf("core: pad source must not be nil")
	}

	maskM := otp.MaskBits(m)
	hist, err := unbounded.NewHistory[V](m, cfg.capacity)
	if err != nil {
		return nil, err
	}

	reg := &Register[V]{
		m:     m,
		maskM: maskM,
		pads:  pads,
		hist:  hist,
	}

	init := shmem.Triple[V]{Seq: 0, Val: initial, Bits: pads.Mask(0) & maskM}
	switch {
	case cfg.tripleReg != nil:
		if got := cfg.tripleReg.Load(); got != init {
			return nil, fmt.Errorf("core: injected R holds %+v, want %+v", got, init)
		}
		reg.r = cfg.tripleReg
	default:
		reg.r = defaultTripleReg(init)
	}
	switch {
	case cfg.seqReg != nil:
		if got := cfg.seqReg.Load(); got != 0 {
			return nil, fmt.Errorf("core: injected SN holds %d, want 0", got)
		}
		reg.sn = cfg.seqReg
	default:
		reg.sn = &shmem.AtomicSeq{}
	}
	return reg, nil
}

// Readers returns the register's reader count m.
func (reg *Register[V]) Readers() int { return reg.m }

// Seq returns the current announced sequence number (the content of SN).
// It is a diagnostic; the paper's object does not expose it.
func (reg *Register[V]) Seq() uint64 { return reg.sn.Load() }

// Write performs a write with an anonymous writer handle. Handy when the
// caller does not need instrumentation.
func (reg *Register[V]) Write(v V) error {
	w := Writer[V]{reg: reg, pid: -1, padc: otp.NewPadCache(reg.pads)}
	return w.Write(v)
}

// HandleOption configures a process handle (probe, pid). It is shared across
// the auditable objects of this repository.
type HandleOption = handle.Option

// WithProbe attaches an instrumentation probe to the handle. The probe is
// invoked synchronously around every primitive the handle applies to shared
// base objects.
func WithProbe(p probe.Probe) HandleOption { return handle.WithProbe(p) }

// WithPID overrides the process id reported in probe events. Readers default
// to their reader index; writers and auditors default to -1.
func WithPID(pid int) HandleOption { return handle.WithPID(pid) }

// Reader returns the handle for reader j (0 <= j < m). Each reading process
// must use its own handle; a handle is not safe for concurrent use.
func (reg *Register[V]) Reader(j int, opts ...HandleOption) (*Reader[V], error) {
	if j < 0 || j >= reg.m {
		return nil, fmt.Errorf("core: reader index %d out of range [0, %d)", j, reg.m)
	}
	cfg := handle.Apply(j, opts)
	return &Reader[V]{
		reg:    reg,
		j:      j,
		pid:    cfg.PID,
		probe:  cfg.Probe,
		prevSN: ^uint64(0), // the paper's prev_sn = -1
	}, nil
}

// Writer returns a writer handle. A handle is not safe for concurrent use;
// create one per writing process (they are stateless apart from
// instrumentation, so this is purely for probe attribution).
func (reg *Register[V]) Writer(opts ...HandleOption) *Writer[V] {
	cfg := handle.Apply(-1, opts)
	return &Writer[V]{reg: reg, pid: cfg.PID, probe: cfg.Probe, padc: otp.NewPadCache(reg.pads)}
}

// Auditor returns an auditor handle holding its own audit set A and cursor
// lsa, as in the paper. A handle is not safe for concurrent use.
func (reg *Register[V]) Auditor(opts ...HandleOption) *Auditor[V] {
	cfg := handle.Apply(-1, opts)
	return &Auditor[V]{
		reg:   reg,
		pid:   cfg.PID,
		probe: cfg.Probe,
		padc:  otp.NewPadCache(reg.pads),
		set:   NewAuditSet[V](),
	}
}
