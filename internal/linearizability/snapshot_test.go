package linearizability_test

import (
	"testing"

	"auditreg/internal/core"
	"auditreg/internal/history"
	"auditreg/internal/linearizability"
	"auditreg/internal/otp"
	"auditreg/internal/sched"
	"auditreg/internal/snapshot"
)

// TestSnapshotLinearizableUnderScheduler (Thm 12) drives Algorithm 3 — two
// updaters, two scanners, an auditor — under seeded schedules of its probe
// points (S.update, S.scan and M's primitives) and checks every history
// against the auditable snapshot specification: one linearization must
// explain the scans and make each audit exactly the scans before it. A scan
// or update of S is one step of the model, so under one seed the
// Afek-with-handles substrate must return, operation for operation, what the
// locked reference returns.
func TestSnapshotLinearizableUnderScheduler(t *testing.T) {
	t.Parallel()
	const seeds = 40
	for seed := uint64(0); seed < seeds; seed++ {
		afek := outputs(runScheduledSnapshot(t, seed))
		locked := outputs(runScheduledSnapshot(t, seed, snapshot.WithLockedStore[uint64]()))
		if afek != locked {
			t.Fatalf("seed %d: Afek history differs from the locked reference:\n%s\nvs\n%s", seed, afek, locked)
		}
	}
}

// viewName packs a two-component view of values below 256 into the name the
// history's scans and audits call it by.
func viewName(v []uint64) uint64 { return v[0]<<8 | v[1] }

func runScheduledSnapshot(t *testing.T, seed uint64, opts ...snapshot.AuditableOption[uint64]) []history.Op {
	t.Helper()
	s := sched.New(sched.NewRandomPolicy(seed))
	pads, err := otp.NewKeyedPads(otp.KeyFromSeed(seed), 2)
	if err != nil {
		t.Fatalf("pads: %v", err)
	}
	reg, err := snapshot.NewAuditable(2, 2, uint64(0), pads, opts...)
	if err != nil {
		t.Fatalf("NewAuditable: %v", err)
	}
	const scannerPID, auditorPID = 10, 200
	var rec history.Recorder
	procs := map[int]func(){}
	for i, vals := range [][]uint64{{4, 6}, {5, 7}} {
		u, err := reg.Updater(i, otp.NewSeededNonces(seed, uint8(i+1)), core.WithProbe(s.Probe(i)))
		if err != nil {
			t.Fatalf("Updater: %v", err)
		}
		procs[i] = func() {
			for _, v := range vals {
				p := rec.Begin(i, "update", v)
				if err := u.Update(v); err != nil {
					t.Errorf("update: %v", err)
					return
				}
				p.End()
			}
		}
	}
	for j := 0; j < 2; j++ {
		pid := scannerPID + j
		sc, err := reg.Scanner(j, core.WithPID(pid), core.WithProbe(s.Probe(pid)))
		if err != nil {
			t.Fatalf("Scanner: %v", err)
		}
		procs[pid] = func() {
			for k := 0; k < 20; k++ {
				p := rec.Begin(pid, "scan", 0)
				v := sc.Scan()
				p.SetOutVec(v).SetOut(viewName(v)).End()
			}
		}
	}
	aud := reg.Auditor(core.WithPID(auditorPID), core.WithProbe(s.Probe(auditorPID)))
	procs[auditorPID] = func() {
		for k := 0; k < 8; k++ {
			p := rec.Begin(auditorPID, "audit", 0)
			entries, err := aud.Audit()
			if err != nil {
				t.Errorf("audit: %v", err)
				return
			}
			pairs := make([]history.Pair, len(entries))
			for i, e := range entries {
				pairs[i] = history.Pair{Reader: scannerPID + e.Reader, Value: viewName(e.View)}
			}
			p.SetOutSet(pairs).End()
		}
	}
	if err := s.Run(procs); err != nil {
		t.Fatalf("seed %d: Run: %v", seed, err)
	}

	ops := rec.Ops()
	res, err := linearizability.Check(linearizability.SnapshotModel{N: 2}, ops)
	if err != nil {
		t.Fatalf("seed %d: Check: %v", seed, err)
	}
	if !res.Ok {
		t.Fatalf("seed %d: snapshot history not linearizable:\n%v", seed, ops)
	}
	return ops
}
