package linearizability_test

import (
	"testing"

	"auditreg/internal/history"
	"auditreg/internal/linearizability"
)

// op builds a history op succinctly for hand-written cases.
func op(proc int, call string, arg, out uint64, inv, ret int64) history.Op {
	return history.Op{Proc: proc, Call: call, Arg: arg, Out: out, Inv: inv, Ret: ret}
}

func check(t *testing.T, model linearizability.Model, ops []history.Op) linearizability.Result {
	t.Helper()
	res, err := linearizability.Check(model, ops)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return res
}

func TestCheckerSequentialRegister(t *testing.T) {
	t.Parallel()
	ops := []history.Op{
		op(1, "write", 5, 0, 1, 2),
		op(2, "read", 0, 5, 3, 4),
	}
	if res := check(t, linearizability.RegisterModel{Initial: 0}, ops); !res.Ok {
		t.Fatal("sequential history rejected")
	}
}

func TestCheckerRejectsStaleRead(t *testing.T) {
	t.Parallel()
	// write(5) completes before the read starts, yet the read returns 0.
	ops := []history.Op{
		op(1, "write", 5, 0, 1, 2),
		op(2, "read", 0, 0, 3, 4),
	}
	if res := check(t, linearizability.RegisterModel{Initial: 0}, ops); res.Ok {
		t.Fatal("stale read accepted")
	}
}

func TestCheckerAcceptsConcurrentEitherOrder(t *testing.T) {
	t.Parallel()
	// The read overlaps the write: both 0 and 5 are valid outputs.
	for _, out := range []uint64{0, 5} {
		ops := []history.Op{
			op(1, "write", 5, 0, 1, 4),
			op(2, "read", 0, out, 2, 3),
		}
		if res := check(t, linearizability.RegisterModel{Initial: 0}, ops); !res.Ok {
			t.Fatalf("concurrent read returning %d rejected", out)
		}
	}
}

func TestCheckerRejectsNewOldInversion(t *testing.T) {
	t.Parallel()
	// Two sequential reads around a write: new-old inversion (read 5 then
	// read 0 after the write completed) must be rejected.
	ops := []history.Op{
		op(1, "write", 5, 0, 1, 2),
		op(2, "read", 0, 5, 3, 4),
		op(2, "read", 0, 0, 5, 6),
	}
	if res := check(t, linearizability.RegisterModel{Initial: 0}, ops); res.Ok {
		t.Fatal("new-old inversion accepted")
	}
}

func TestCheckerAuditCompleteness(t *testing.T) {
	t.Parallel()
	// A completed read must appear in a later audit: empty audit rejected.
	ops := []history.Op{
		op(2, "read", 0, 0, 1, 2),
		{Proc: 3, Call: "audit", OutSet: nil, Inv: 3, Ret: 4},
	}
	if res := check(t, linearizability.AuditableRegisterModel{Initial: 0}, ops); res.Ok {
		t.Fatal("audit missing a completed read accepted")
	}
	// With the right pair it passes.
	ops[1].OutSet = []history.Pair{{Reader: 2, Value: 0}}
	if res := check(t, linearizability.AuditableRegisterModel{Initial: 0}, ops); !res.Ok {
		t.Fatal("correct audit rejected")
	}
}

func TestCheckerAuditAccuracy(t *testing.T) {
	t.Parallel()
	// An audit reporting a read that never happened must be rejected.
	ops := []history.Op{
		{Proc: 3, Call: "audit", OutSet: []history.Pair{{Reader: 2, Value: 0}}, Inv: 1, Ret: 2},
	}
	if res := check(t, linearizability.AuditableRegisterModel{Initial: 0}, ops); res.Ok {
		t.Fatal("phantom audit entry accepted")
	}
}

func TestCheckerAuditConcurrentRead(t *testing.T) {
	t.Parallel()
	// Read concurrent with audit: the audit may or may not include it.
	for _, outset := range [][]history.Pair{nil, {{Reader: 2, Value: 7}}} {
		ops := []history.Op{
			op(1, "write", 7, 0, 1, 2),
			op(2, "read", 0, 7, 3, 6),
			{Proc: 3, Call: "audit", OutSet: outset, Inv: 4, Ret: 5},
		}
		if res := check(t, linearizability.AuditableRegisterModel{Initial: 0}, ops); !res.Ok {
			t.Fatalf("valid concurrent audit %v rejected", outset)
		}
	}
}

func TestCheckerMaxModel(t *testing.T) {
	t.Parallel()
	ops := []history.Op{
		op(1, "writeMax", 5, 0, 1, 2),
		op(1, "writeMax", 3, 0, 3, 4), // lower write
		op(2, "read", 0, 5, 5, 6),
	}
	if res := check(t, linearizability.AuditableMaxModel{Initial: 0}, ops); !res.Ok {
		t.Fatal("max history rejected")
	}
	// A read below the established max must be rejected.
	ops[2].Out = 3
	if res := check(t, linearizability.AuditableMaxModel{Initial: 0}, ops); res.Ok {
		t.Fatal("sub-max read accepted")
	}
}

func TestCheckerSnapshotModel(t *testing.T) {
	t.Parallel()
	ops := []history.Op{
		op(0, "update", 4, 0, 1, 2),
		{Proc: 9, Call: "scan", OutVec: []uint64{4, 0}, Inv: 3, Ret: 4},
	}
	if res := check(t, linearizability.SnapshotModel{N: 2}, ops); !res.Ok {
		t.Fatal("snapshot history rejected")
	}
	audited := append(ops, history.Op{Proc: 200, Call: "audit", OutSet: []history.Pair{{Reader: 9, Value: 0}}, Inv: 5, Ret: 6})
	if res := check(t, linearizability.SnapshotModel{N: 2}, audited); !res.Ok {
		t.Fatal("audit of the one scan rejected")
	}
	audited[2].OutSet = nil
	if res := check(t, linearizability.SnapshotModel{N: 2}, audited); res.Ok {
		t.Fatal("audit missing a completed scan accepted")
	}
	ops[1].OutVec = []uint64{0, 4} // wrong component
	if res := check(t, linearizability.SnapshotModel{N: 2}, ops); res.Ok {
		t.Fatal("misplaced component accepted")
	}
}

func TestCheckerValidation(t *testing.T) {
	t.Parallel()
	// Inverted interval.
	bad := []history.Op{op(1, "read", 0, 0, 5, 3)}
	if _, err := linearizability.Check(linearizability.RegisterModel{}, bad); err == nil {
		t.Fatal("inverted interval accepted")
	}
	// Oversized history.
	big := make([]history.Op, linearizability.MaxOps+1)
	for i := range big {
		big[i] = op(1, "read", 0, 0, int64(2*i+1), int64(2*i+2))
	}
	if _, err := linearizability.Check(linearizability.RegisterModel{}, big); err == nil {
		t.Fatal("oversized history accepted")
	}
}

func TestCheckerWitnessIsValidOrder(t *testing.T) {
	t.Parallel()
	ops := []history.Op{
		op(1, "write", 5, 0, 1, 4),
		op(2, "read", 0, 5, 2, 3),
	}
	res := check(t, linearizability.RegisterModel{Initial: 0}, ops)
	if !res.Ok {
		t.Fatal("history rejected")
	}
	if len(res.Witness) != len(ops) {
		t.Fatalf("witness has %d ops, want %d", len(res.Witness), len(ops))
	}
	// Replaying the witness through the model must succeed.
	st := linearizability.RegisterModel{Initial: 0}.Init()
	for _, idx := range res.Witness {
		next, ok := st.Apply(ops[idx])
		if !ok {
			t.Fatalf("witness step %d invalid", idx)
		}
		st = next
	}
}
