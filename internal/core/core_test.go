package core_test

import (
	"testing"

	"auditreg/internal/core"
	"auditreg/internal/maxreg"
	"auditreg/internal/otp"
	"auditreg/internal/probe"
	"auditreg/internal/shmem"
	"auditreg/internal/spec"
)

// backends enumerates the interchangeable R implementations every behavioural
// test runs against. "seqlock" is what core.New auto-selects for uint64, so
// it doubles as the default-path entry; "ptr" is injected explicitly to keep
// the lock-free pointer backend covered.
var backends = []string{"ptr", "locked", "seqlock"}

// newReg builds a register over uint64 values with the requested backend.
func newReg(t *testing.T, backend string, m int, initial uint64) *core.Register[uint64] {
	t.Helper()
	pads, err := otp.NewKeyedPads(otp.KeyFromSeed(42), m)
	if err != nil {
		t.Fatalf("NewKeyedPads: %v", err)
	}
	var opts []core.Option[uint64]
	switch backend {
	case "ptr":
		init := shmem.Triple[uint64]{Seq: 0, Val: initial, Bits: pads.Mask(0)}
		opts = append(opts, core.WithTripleReg[uint64](shmem.NewPtrTriple(init)))
	case "seqlock":
		// What core.New picks by itself for uint64; exercised via the
		// default path on purpose.
	case "locked":
		init := shmem.Triple[uint64]{Seq: 0, Val: initial, Bits: pads.Mask(0)}
		opts = append(opts, core.WithTripleReg[uint64](shmem.NewLockedTriple(init)))
		opts = append(opts, core.WithSeqReg[uint64](&shmem.LockedSeq{}))
	default:
		t.Fatalf("unknown backend %q", backend)
	}
	reg, err := core.New[uint64](m, initial, pads, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return reg
}

func mustReader(t *testing.T, reg *core.Register[uint64], j int, opts ...core.HandleOption) *core.Reader[uint64] {
	t.Helper()
	rd, err := reg.Reader(j, opts...)
	if err != nil {
		t.Fatalf("Reader(%d): %v", j, err)
	}
	return rd
}

func mustAudit(t *testing.T, a *core.Auditor[uint64]) core.Report[uint64] {
	t.Helper()
	rep, err := a.Audit()
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	return rep
}

func TestNewValidation(t *testing.T) {
	t.Parallel()
	pads, _ := otp.NewKeyedPads(otp.KeyFromSeed(1), 4)

	if _, err := core.New[int](0, 0, pads); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := core.New[int](65, 0, pads); err == nil {
		t.Error("m=65 accepted")
	}
	if _, err := core.New[int](4, 0, nil); err == nil {
		t.Error("nil pads accepted")
	}

	// Injected R must hold the correct initial triple.
	bad := shmem.NewLockedTriple(shmem.Triple[int]{Seq: 7, Val: 0, Bits: 0})
	if _, err := core.New[int](4, 0, pads, core.WithTripleReg[int](bad)); err == nil {
		t.Error("mis-initialized injected R accepted")
	}

	// Injected SN must hold 0.
	sn := &shmem.LockedSeq{}
	sn.CompareAndSwap(0, 3)
	if _, err := core.New[int](4, 0, pads, core.WithSeqReg[int](sn)); err == nil {
		t.Error("mis-initialized injected SN accepted")
	}

	// M belongs to the max register: a plain register refuses it, and the
	// max register checks what it is handed.
	lessInt := func(a, b int) bool { return a < b }
	lessNonced := func(a, b core.Nonced[int]) bool { return a.Val < b.Val }
	if _, err := core.New[int](4, 0, pads, core.WithM[int](maxreg.NewLockedMax(core.Nonced[int]{}, lessNonced))); err == nil {
		t.Error("WithM accepted by a plain register")
	}
	if _, err := core.NewMaxRegister[int](4, 0, lessInt, pads, core.WithM[int](maxreg.NewLockedMax(core.Nonced[int]{Val: 3}, lessNonced))); err == nil {
		t.Error("mis-initialized injected M accepted")
	}

	reg, err := core.New[int](4, 0, pads)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := reg.Reader(-1); err == nil {
		t.Error("Reader(-1) accepted")
	}
	if _, err := reg.Reader(4); err == nil {
		t.Error("Reader(m) accepted")
	}
}

func TestInitialValueReadAndAudited(t *testing.T) {
	t.Parallel()
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			reg := newReg(t, backend, 3, 99)
			rd := mustReader(t, reg, 1)
			if got := rd.Read(); got != 99 {
				t.Fatalf("initial read = %d, want 99", got)
			}
			rep := mustAudit(t, reg.Auditor())
			if !rep.Contains(1, 99) {
				t.Fatalf("audit %v missing (1, 99)", rep)
			}
			if rep.Len() != 1 {
				t.Fatalf("audit has %d entries, want 1: %v", rep.Len(), rep)
			}
		})
	}
}

func TestReadAfterWrite(t *testing.T) {
	t.Parallel()
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			reg := newReg(t, backend, 2, 0)
			w := reg.Writer()
			rd := mustReader(t, reg, 0)
			for i := uint64(1); i <= 10; i++ {
				if err := w.Write(i); err != nil {
					t.Fatalf("Write(%d): %v", i, err)
				}
				if got := rd.Read(); got != i {
					t.Fatalf("read after Write(%d) = %d", i, got)
				}
			}
		})
	}
}

func TestAuditMatchesSpecSequential(t *testing.T) {
	t.Parallel()
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			const m = 4
			reg := newReg(t, backend, m, 7)
			oracle := spec.NewAuditableRegister[uint64](7)
			readers := make([]*core.Reader[uint64], m)
			for j := range readers {
				readers[j] = mustReader(t, reg, j)
			}
			w := reg.Writer()
			auditor := reg.Auditor()

			// A fixed but shape-rich schedule: interleaved writes,
			// reads by various readers, repeated (silent) reads,
			// and audits at several points.
			script := []struct {
				op  string
				arg uint64
			}{
				{"r", 0}, {"r", 1}, {"a", 0},
				{"w", 100}, {"r", 0}, {"r", 0}, {"a", 0},
				{"w", 200}, {"w", 300}, {"r", 2}, {"a", 0},
				{"r", 3}, {"r", 1}, {"a", 0},
				{"w", 400}, {"a", 0}, {"r", 1}, {"a", 0},
			}
			for i, step := range script {
				switch step.op {
				case "r":
					got := readers[step.arg].Read()
					want := oracle.Read(int(step.arg))
					if got != want {
						t.Fatalf("step %d: read by %d = %d, want %d", i, step.arg, got, want)
					}
				case "w":
					if err := w.Write(step.arg); err != nil {
						t.Fatalf("step %d: write: %v", i, err)
					}
					oracle.Write(step.arg)
				case "a":
					got := mustAudit(t, auditor)
					want := oracle.Audit()
					if !got.Equal(want) {
						t.Fatalf("step %d: audit = %v, want %v", i, got, want)
					}
				}
			}
		})
	}
}

func TestSilentReadSkipsSharedMemory(t *testing.T) {
	t.Parallel()
	reg := newReg(t, "ptr", 2, 5)
	counter := probe.NewCounter()
	rd := mustReader(t, reg, 0, core.WithProbe(counter.Probe()))

	rd.Read()
	if got := counter.Invokes[probe.RXor]; got != 1 {
		t.Fatalf("first read applied %d fetch&xor, want 1", got)
	}
	// No write happened: the next reads must be silent (one SN read each,
	// no fetch&xor), so the reader never observes the same pad twice.
	for i := 0; i < 5; i++ {
		rd.Read()
	}
	if got := counter.Invokes[probe.RXor]; got != 1 {
		t.Fatalf("silent reads applied fetch&xor: total %d, want 1", got)
	}
	if got := counter.Invokes[probe.SNRead]; got != 6 {
		t.Fatalf("SN reads = %d, want 6", got)
	}

	// After a write the reader becomes direct again: exactly one more xor.
	if err := reg.Write(9); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if got := rd.Read(); got != 9 {
		t.Fatalf("read = %d, want 9", got)
	}
	if got := counter.Invokes[probe.RXor]; got != 2 {
		t.Fatalf("fetch&xor after write = %d, want 2", got)
	}
}

func TestAuditCumulativeAndIncremental(t *testing.T) {
	t.Parallel()
	reg := newReg(t, "ptr", 2, 0)
	rd0 := mustReader(t, reg, 0)
	rd1 := mustReader(t, reg, 1)

	counter := probe.NewCounter()
	auditor := reg.Auditor(core.WithProbe(counter.Probe()))

	rd0.Read()
	reg.Write(1)
	rd1.Read()
	rep := mustAudit(t, auditor)
	if !rep.Contains(0, 0) || !rep.Contains(1, 1) || rep.Len() != 2 {
		t.Fatalf("audit = %v, want {(0,0), (1,1)}", rep)
	}
	firstScan := counter.Invokes[probe.VLoad]

	// 10 more writes, then audit again: the incremental cursor means the
	// second audit scans only the new suffix.
	for i := uint64(2); i < 12; i++ {
		reg.Write(i)
	}
	rd0.Read()
	rep = mustAudit(t, auditor)
	if !rep.Contains(0, 0) || !rep.Contains(1, 1) || !rep.Contains(0, 11) {
		t.Fatalf("cumulative audit lost entries: %v", rep)
	}
	secondScan := counter.Invokes[probe.VLoad] - firstScan
	if secondScan > 11 {
		t.Fatalf("second audit scanned %d rows, want <= 11 (incremental from lsa)", secondScan)
	}

	// A third audit with no new writes scans nothing.
	before := counter.Invokes[probe.VLoad]
	mustAudit(t, auditor)
	if counter.Invokes[probe.VLoad] != before {
		t.Fatalf("no-op audit rescanned history")
	}
}

func TestTwoAuditorsIndependentCursors(t *testing.T) {
	t.Parallel()
	reg := newReg(t, "ptr", 2, 0)
	rd := mustReader(t, reg, 1)
	a1 := reg.Auditor()
	a2 := reg.Auditor()

	rd.Read()
	reg.Write(5)
	rep1 := mustAudit(t, a1)
	if !rep1.Contains(1, 0) {
		t.Fatalf("a1 audit missing (1,0): %v", rep1)
	}
	rd.Read()
	// A fresh auditor starting now must still discover the old read of 0
	// (via B) and the new read of 5 (via R's tracking bits).
	rep2 := mustAudit(t, a2)
	if !rep2.Contains(1, 0) || !rep2.Contains(1, 5) {
		t.Fatalf("late auditor missed history: %v", rep2)
	}
}

func TestWriteSilentWhenOverwrittenConcurrently(t *testing.T) {
	// A write that observes R.seq >= its target must terminate without
	// CASing R (it is linearized as immediately overwritten). We force
	// that by pre-advancing R through another writer between the SN read
	// and the loop — emulated here by a probe-triggered write.
	t.Parallel()
	reg := newReg(t, "ptr", 1, 0)
	w2 := reg.Writer()

	fired := false
	p := func(e probe.Event) {
		if e.Prim == probe.SNRead && e.Kind == probe.Return && !fired {
			fired = true
			if err := w2.Write(77); err != nil {
				t.Errorf("interleaved write: %v", err)
			}
		}
	}
	counter := probe.NewCounter()
	w1 := reg.Writer(core.WithProbe(func(e probe.Event) { p(e); counter.Probe()(e) }))

	if err := w1.Write(1); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if got := counter.Invokes[probe.RCAS]; got != 0 {
		t.Fatalf("silent write applied %d CAS on R, want 0", got)
	}
	rd := mustReader(t, reg, 0)
	if got := rd.Read(); got != 77 {
		t.Fatalf("read = %d, want 77 (the overwriting value)", got)
	}
}

func TestHistoryCapacityExhaustion(t *testing.T) {
	t.Parallel()
	reg, err := core.New[uint64](1, 0, otp.ZeroPads{}, core.WithCapacity[uint64](1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w := reg.Writer()
	var writeErr error
	for i := uint64(1); i < 3000; i++ {
		if writeErr = w.Write(i); writeErr != nil {
			break
		}
	}
	if writeErr == nil {
		t.Fatal("writes never hit the capacity bound")
	}
	// The failed write did not corrupt the register: reads and audits on
	// the recorded history still work.
	rd := mustReader(t, reg, 0)
	got := rd.Read()
	rep := mustAudit(t, reg.Auditor())
	if !rep.Contains(0, got) {
		t.Fatalf("audit %v missing surviving read (0, %d)", rep, got)
	}
}

func TestSeqMonotone(t *testing.T) {
	t.Parallel()
	reg := newReg(t, "ptr", 1, 0)
	last := reg.Seq()
	for i := uint64(1); i <= 100; i++ {
		reg.Write(i)
		cur := reg.Seq()
		if cur < last {
			t.Fatalf("SN went backwards: %d -> %d", last, cur)
		}
		last = cur
	}
	if last != 100 {
		t.Fatalf("SN = %d after 100 writes, want 100", last)
	}
}
