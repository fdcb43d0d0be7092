package linearizability_test

import (
	"testing"

	"auditreg/internal/core"
	"auditreg/internal/history"
	"auditreg/internal/linearizability"
	"auditreg/internal/otp"
	"auditreg/internal/sched"
)

// auditPairs converts a core report to history pairs.
func auditPairs(rep core.Report[uint64]) []history.Pair {
	entries := rep.Entries()
	out := make([]history.Pair, len(entries))
	for i, e := range entries {
		out[i] = history.Pair{Reader: e.Reader, Value: e.Value}
	}
	return out
}

// TestRegisterLinearizableUnderScheduler (E2) drives Algorithm 1 under many
// seeded deterministic schedules — every interleaving of shared-memory
// primitives is scheduler-chosen — records the operation history, and runs
// the linearizability checker against the auditable-register specification.
func TestRegisterLinearizableUnderScheduler(t *testing.T) {
	t.Parallel()
	const seeds = 150
	for seed := uint64(0); seed < seeds; seed++ {
		runScheduledRegisterCheck(t, seed)
	}
}

func runScheduledRegisterCheck(t *testing.T, seed uint64) {
	t.Helper()
	s := sched.New(sched.NewRandomPolicy(seed))
	pads, err := otp.NewKeyedPads(otp.KeyFromSeed(seed), 2)
	if err != nil {
		t.Fatalf("pads: %v", err)
	}
	reg, err := core.New(2, uint64(0), pads)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

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
	read := func(proc int, rd *core.Reader[uint64]) {
		p := rec.Begin(proc, "read", 0)
		p.SetOut(rd.Read()).End()
	}
	write := func(proc int, w *core.Writer[uint64], v uint64) {
		p := rec.Begin(proc, "write", v)
		if err := w.Write(v); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		p.End()
	}
	audit := func(proc int) {
		p := rec.Begin(proc, "audit", 0)
		rep, err := aud.Audit()
		if err != nil {
			t.Errorf("audit: %v", err)
			return
		}
		p.SetOutSet(auditPairs(rep)).End()
	}

	if err := s.Run(map[int]func(){
		0:   func() { read(0, rd0); read(0, rd0) },
		1:   func() { read(1, rd1) },
		100: func() { write(100, w, 7) },
		101: func() { write(101, w2, 9) },
		200: func() { audit(200) },
	}); err != nil {
		t.Fatalf("seed %d: Run: %v", seed, err)
	}

	ops := rec.Ops()
	res, err := linearizability.Check(linearizability.AuditableRegisterModel{Initial: 0}, ops)
	if err != nil {
		t.Fatalf("seed %d: Check: %v", seed, err)
	}
	if !res.Ok {
		t.Fatalf("seed %d: history not linearizable:\n%v", seed, ops)
	}
}

// TestRegisterLinearizableUnderRealConcurrency (E2) repeats the check with
// free-running goroutines (true parallelism, no scheduler), many rounds.
func TestRegisterLinearizableUnderRealConcurrency(t *testing.T) {
	t.Parallel()
	const rounds = 120
	for round := 0; round < rounds; round++ {
		pads, err := otp.NewKeyedPads(otp.KeyFromSeed(uint64(round)), 2)
		if err != nil {
			t.Fatalf("pads: %v", err)
		}
		reg, err := core.New(2, uint64(0), pads)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		rd0, _ := reg.Reader(0)
		rd1, _ := reg.Reader(1)
		w := reg.Writer()
		aud := reg.Auditor()

		var rec history.Recorder
		done := make(chan struct{}, 4)
		go func() {
			for i := 0; i < 2; i++ {
				p := rec.Begin(0, "read", 0)
				p.SetOut(rd0.Read()).End()
			}
			done <- struct{}{}
		}()
		go func() {
			p := rec.Begin(1, "read", 0)
			p.SetOut(rd1.Read()).End()
			done <- struct{}{}
		}()
		go func() {
			for _, v := range []uint64{3, 5} {
				p := rec.Begin(100, "write", v)
				if err := w.Write(v); err != nil {
					panic(err)
				}
				p.End()
			}
			done <- struct{}{}
		}()
		go func() {
			p := rec.Begin(200, "audit", 0)
			rep, err := aud.Audit()
			if err != nil {
				panic(err)
			}
			p.SetOutSet(auditPairs(rep)).End()
			done <- struct{}{}
		}()
		for i := 0; i < 4; i++ {
			<-done
		}

		res, err := linearizability.Check(linearizability.AuditableRegisterModel{Initial: 0}, rec.Ops())
		if err != nil {
			t.Fatalf("round %d: Check: %v", round, err)
		}
		if !res.Ok {
			t.Fatalf("round %d: history not linearizable:\n%v", round, rec.Ops())
		}
	}
}

// TestMaxRegisterLinearizableUnderScheduler (E5/Thm 40) checks Algorithm 2
// histories against the auditable max specification under seeded schedules.
func TestMaxRegisterLinearizableUnderScheduler(t *testing.T) {
	t.Parallel()
	const seeds = 100
	for seed := uint64(0); seed < seeds; seed++ {
		pads, err := otp.NewKeyedPads(otp.KeyFromSeed(seed), 2)
		if err != nil {
			t.Fatalf("pads: %v", err)
		}
		runScheduledMax(t, seed, pads)
	}
}

// runScheduledMax drives a 2-reader uint64 max register — two readers, two
// writeMax processes, one auditor — under the seed's schedule, checks the
// recorded history against the auditable max specification and returns it.
func runScheduledMax(t *testing.T, seed uint64, pads otp.PadSource, opts ...core.Option[uint64]) []history.Op {
	t.Helper()
	s := sched.New(sched.NewRandomPolicy(seed))
	reg, err := core.NewMaxRegister(2, uint64(0), func(a, b uint64) bool { return a < b }, pads, opts...)
	if err != nil {
		t.Fatalf("NewMaxRegister: %v", err)
	}
	rd0, err := reg.Reader(0, core.WithProbe(s.Probe(0)))
	if err != nil {
		t.Fatalf("Reader: %v", err)
	}
	rd1, err := reg.Reader(1, core.WithProbe(s.Probe(1)))
	if err != nil {
		t.Fatalf("Reader: %v", err)
	}
	w1, err := reg.Writer(otp.NewSeededNonces(seed, 1), core.WithProbe(s.Probe(100)))
	if err != nil {
		t.Fatalf("Writer: %v", err)
	}
	w2, err := reg.Writer(otp.NewSeededNonces(seed, 2), core.WithProbe(s.Probe(101)))
	if err != nil {
		t.Fatalf("Writer: %v", err)
	}
	aud := reg.Auditor(core.WithProbe(s.Probe(200)))

	var rec history.Recorder
	if err := s.Run(map[int]func(){
		0: func() {
			p := rec.Begin(0, "read", 0)
			p.SetOut(rd0.Read()).End()
			p = rec.Begin(0, "read", 0)
			p.SetOut(rd0.Read()).End()
		},
		1: func() {
			p := rec.Begin(1, "read", 0)
			p.SetOut(rd1.Read()).End()
		},
		100: func() {
			p := rec.Begin(100, "writeMax", 5)
			if err := w1.WriteMax(5); err != nil {
				t.Errorf("writeMax: %v", err)
				return
			}
			p.End()
		},
		101: func() {
			p := rec.Begin(101, "writeMax", 3)
			if err := w2.WriteMax(3); err != nil {
				t.Errorf("writeMax: %v", err)
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
		t.Fatalf("seed %d: Run: %v", seed, err)
	}

	ops := rec.Ops()
	res, err := linearizability.Check(linearizability.AuditableMaxModel{Initial: 0}, ops)
	if err != nil {
		t.Fatalf("seed %d: Check: %v", seed, err)
	}
	if !res.Ok {
		t.Fatalf("seed %d: max history not linearizable:\n%v", seed, ops)
	}
	return ops
}
