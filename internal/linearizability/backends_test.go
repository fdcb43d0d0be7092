package linearizability_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"auditreg/internal/core"
	"auditreg/internal/history"
	"auditreg/internal/linearizability"
	"auditreg/internal/maxreg"
	"auditreg/internal/otp"
	"auditreg/internal/sched"
	"auditreg/internal/shmem"
)

// newBackendReg builds a 2-reader uint64 register over the named R backend
// with block-derived pads, so the scheduler-driven checks below exercise the
// exact configuration of the fast path: seqlock R plus BlockPads.
func newBackendReg(t *testing.T, backend string, pads otp.PadSource) *core.Register[uint64] {
	t.Helper()
	init := shmem.Triple[uint64]{Seq: 0, Val: 0, Bits: pads.Mask(0) & otp.MaskBits(2)}
	var opts []core.Option[uint64]
	switch backend {
	case "ptr":
		opts = append(opts, core.WithTripleReg[uint64](shmem.NewPtrTriple(init)))
	case "seqlock":
		opts = append(opts, core.WithTripleReg[uint64](shmem.NewSeqlockTriple(init)))
	default:
		t.Fatalf("unknown backend %q", backend)
	}
	reg, err := core.New(2, uint64(0), pads, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return reg
}

// TestBackendEquivalenceUnderScheduler (E2) drives the PtrTriple reference
// and the allocation-free backend through scheduler-chosen interleavings and
// checks every recorded history against the auditable-register specification:
// the fast backend must be linearizable exactly where the reference is. The
// maxreg arm does the same for Algorithm 2 over the R and M its uint64
// default selects: under one seed the schedule is a function of the
// primitive sequence alone, so the seqlock R and word M must return,
// operation for operation, what the ptr and locked references of R return,
// and what CASMax as M returns.
func TestBackendEquivalenceUnderScheduler(t *testing.T) {
	t.Parallel()
	const seeds = 40
	for _, backend := range []string{"ptr", "seqlock"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(0); seed < seeds; seed++ {
				runScheduledBackendCheck(t, backend, seed)
			}
		})
	}
	t.Run("maxreg", func(t *testing.T) {
		t.Parallel()
		for seed := uint64(0); seed < seeds; seed++ {
			pads, err := otp.NewBlockPads(otp.KeyFromSeed(seed), 2)
			if err != nil {
				t.Fatalf("pads: %v", err)
			}
			init := shmem.Triple[uint64]{Bits: pads.Mask(0) & otp.MaskBits(2)}
			got := outputs(runScheduledMax(t, seed, pads)) // seqlock R, word M: by value type
			for name, ref := range map[string][]core.Option[uint64]{
				"ptr":    {core.WithTripleReg[uint64](shmem.NewPtrTriple(init))},
				"locked": {core.WithTripleReg[uint64](shmem.NewLockedTriple(init)), core.WithSeqReg[uint64](&shmem.LockedSeq{})},
				"cas-M":  {core.WithM[uint64](maxreg.NewCASMax(core.Nonced[uint64]{}, lessNonced))},
			} {
				if want := outputs(runScheduledMax(t, seed, pads, ref...)); got != want {
					t.Fatalf("seed %d: seqlock history differs from %s reference:\n%s\nvs\n%s", seed, name, got, want)
				}
			}
		}
	})
}

// lessNonced is the order a uint64 max register keeps M in.
func lessNonced(a, b core.Nonced[uint64]) bool {
	if a.Val != b.Val {
		return a.Val < b.Val
	}
	return a.Nonce < b.Nonce
}

// outputs renders what each process's operations returned, in program order
// and without the timestamps (which depend on how the goroutines raced to
// their first primitive, not on the schedule).
func outputs(ops []history.Op) string {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Proc < ops[j].Proc })
	var b strings.Builder
	for _, o := range ops {
		fmt.Fprintf(&b, "p%d.%s(%d)=%d%v%v\n", o.Proc, o.Call, o.Arg, o.Out, o.OutSet, o.OutVec)
	}
	return b.String()
}

func runScheduledBackendCheck(t *testing.T, backend string, seed uint64) {
	t.Helper()
	s := sched.New(sched.NewRandomPolicy(seed))
	pads, err := otp.NewBlockPads(otp.KeyFromSeed(seed), 2)
	if err != nil {
		t.Fatalf("pads: %v", err)
	}
	reg := newBackendReg(t, backend, pads)

	rd0, err := reg.Reader(0, core.WithProbe(s.Probe(0)))
	if err != nil {
		t.Fatalf("Reader: %v", err)
	}
	rd1, err := reg.Reader(1, core.WithProbe(s.Probe(1)))
	if err != nil {
		t.Fatalf("Reader: %v", err)
	}
	w := reg.Writer(core.WithProbe(s.Probe(100)))
	w2 := reg.Writer(core.WithProbe(s.Probe(101)))
	aud := reg.Auditor(core.WithProbe(s.Probe(200)))

	var rec history.Recorder
	if err := s.Run(map[int]func(){
		0: func() {
			for i := 0; i < 2; i++ {
				p := rec.Begin(0, "read", 0)
				p.SetOut(rd0.Read()).End()
			}
		},
		1: func() {
			p := rec.Begin(1, "read", 0)
			p.SetOut(rd1.Read()).End()
		},
		100: func() {
			p := rec.Begin(100, "write", 7)
			if err := w.Write(7); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			p.End()
		},
		101: func() {
			p := rec.Begin(101, "write", 9)
			if err := w2.Write(9); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			p.End()
		},
		200: func() {
			p := rec.Begin(200, "audit", 0)
			rep, err := aud.Audit()
			if err != nil {
				t.Errorf("audit: %v", err)
				return
			}
			p.SetOutSet(auditPairs(rep)).End()
		},
	}); err != nil {
		t.Fatalf("%s seed %d: Run: %v", backend, seed, err)
	}

	ops := rec.Ops()
	res, err := linearizability.Check(linearizability.AuditableRegisterModel{Initial: 0}, ops)
	if err != nil {
		t.Fatalf("%s seed %d: Check: %v", backend, seed, err)
	}
	if !res.Ok {
		t.Fatalf("%s seed %d: history not linearizable:\n%v", backend, seed,
			fmt.Sprintf("%v", ops))
	}
}
