package auditreg_test

import (
	"testing"

	"auditreg"
)

// The facade tests exercise the whole public API end to end, the way a
// downstream user would, without touching internal packages.

// A max register's read and audit handles are the register's: one Reader
// type, one Auditor type. These assignments stop compiling if the two
// algorithms ever grow separate handles again.
var (
	_ *auditreg.Reader[uint64]  = (*auditreg.MaxReader[uint64])(nil)
	_ *auditreg.Auditor[uint64] = (*auditreg.MaxAuditor[uint64])(nil)
)

func TestFacadeRegister(t *testing.T) {
	t.Parallel()
	pads, err := auditreg.NewKeyedPads(auditreg.KeyFromSeed(1), 3)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := auditreg.NewRegister(3, "v0", pads)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := reg.Reader(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := rd.Read(); got != "v0" {
		t.Fatalf("read = %q", got)
	}
	w := reg.Writer()
	if err := w.Write("v1"); err != nil {
		t.Fatal(err)
	}
	if got := rd.Read(); got != "v1" {
		t.Fatalf("read = %q", got)
	}
	rep, err := reg.Auditor().Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Contains(1, "v0") || !rep.Contains(1, "v1") {
		t.Fatalf("audit = %v", rep)
	}
}

func TestFacadeRegisterCapacityOption(t *testing.T) {
	t.Parallel()
	pads, err := auditreg.NewKeyedPads(auditreg.KeyFromSeed(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := auditreg.NewRegister(1, uint64(0), pads, auditreg.WithCapacity[uint64](1))
	if err != nil {
		t.Fatal(err)
	}
	w := reg.Writer()
	var failed bool
	for i := uint64(0); i < 3000; i++ {
		if err := w.Write(i); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("capacity bound never enforced")
	}
}

func TestFacadeMaxRegister(t *testing.T) {
	t.Parallel()
	pads, err := auditreg.NewKeyedPads(auditreg.KeyFromSeed(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	board, err := auditreg.NewMaxRegister(2, 0, func(a, b int) bool { return a < b }, pads)
	if err != nil {
		t.Fatal(err)
	}
	w, err := board.Writer(auditreg.NewSeededNonces(9, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{5, 3, 8} {
		if err := w.WriteMax(v); err != nil {
			t.Fatal(err)
		}
	}
	rd, err := board.Reader(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := rd.Read(); got != 8 {
		t.Fatalf("read = %d, want 8", got)
	}
	rep, err := board.Auditor().Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Contains(0, 8) {
		t.Fatalf("audit = %v", rep)
	}
}

func TestFacadeSnapshot(t *testing.T) {
	t.Parallel()
	pads, err := auditreg.NewKeyedPads(auditreg.KeyFromSeed(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := auditreg.NewSnapshot(2, 1, uint64(0), pads)
	if err != nil {
		t.Fatal(err)
	}
	u, err := snap.Updater(1, auditreg.NewSeededNonces(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Update(9); err != nil {
		t.Fatal(err)
	}
	sc, err := snap.Scanner(0)
	if err != nil {
		t.Fatal(err)
	}
	view := sc.Scan()
	if view[0] != 0 || view[1] != 9 {
		t.Fatalf("scan = %v", view)
	}
	entries, err := snap.Auditor().Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !auditreg.ContainsView(entries, 0, view) {
		t.Fatalf("audit %v missing view %v", entries, view)
	}
}

// TestFacadeSnapshotSecondUpdaterHandle: a component's writer may be handed a
// new handle (the old one is retired); its updates must land. A handle that
// restarted the component's sequence tag at 0 published views whose version
// number M had already passed, and every one of them was dropped.
func TestFacadeSnapshotSecondUpdaterHandle(t *testing.T) {
	t.Parallel()
	pads, err := auditreg.NewKeyedPads(auditreg.KeyFromSeed(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := auditreg.NewSnapshot(2, 1, uint64(0), pads)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := snap.Scanner(0)
	if err != nil {
		t.Fatal(err)
	}
	u1, err := snap.Updater(0, auditreg.NewSeededNonces(6, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{1, 2, 3} {
		if err := u1.Update(v); err != nil {
			t.Fatal(err)
		}
	}
	u2, err := snap.Updater(0, auditreg.NewSeededNonces(7, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{99, 100} {
		if err := u2.Update(v); err != nil {
			t.Fatal(err)
		}
		if got := sc.Scan(); got[0] != v || got[1] != 0 {
			t.Fatalf("scan after second handle's Update(%d) = %v", v, got)
		}
	}
}

func TestFacadeVersioned(t *testing.T) {
	t.Parallel()
	pads, err := auditreg.NewKeyedPads(auditreg.KeyFromSeed(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := auditreg.NewVersioned(1, auditreg.NewVersionedBase(auditreg.CounterType()), pads)
	if err != nil {
		t.Fatal(err)
	}
	u, err := counter.Updater(auditreg.NewSeededNonces(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := u.Update(struct{}{}); err != nil {
			t.Fatal(err)
		}
	}
	rd, err := counter.Reader(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := rd.Read(); got != 4 {
		t.Fatalf("count = %d", got)
	}
	rep, err := counter.Auditor().Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Contains(0, 4) {
		t.Fatalf("audit = %v", rep)
	}
}

func TestFacadeKeyHelpers(t *testing.T) {
	t.Parallel()
	if auditreg.KeyFromSeed(1) != auditreg.KeyFromSeed(1) {
		t.Fatal("KeyFromSeed not deterministic")
	}
	if auditreg.KeyFromSeed(1) == auditreg.KeyFromSeed(2) {
		t.Fatal("KeyFromSeed collides")
	}
	k, err := auditreg.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	if k == (auditreg.Key{}) {
		t.Fatal("NewKey returned the zero key")
	}
	n := auditreg.NewCryptoNonces(5)
	if n.Next() == n.Next() {
		t.Fatal("crypto nonces repeated")
	}
	if auditreg.MaxReaders != 64 {
		t.Fatalf("MaxReaders = %d", auditreg.MaxReaders)
	}
}
