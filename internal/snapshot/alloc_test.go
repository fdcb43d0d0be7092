package snapshot_test

import (
	"runtime"
	"testing"

	"auditreg/internal/otp"
	"auditreg/internal/snapshot"
)

// TestAfekAllocations pins the substrate: a handle's update allocates the
// cell and the embedded view it publishes and nothing for the scan that fills
// the view; a handle's scan allocates nothing; the handle-less Scan brings
// its own working memory, no more of it than before there were handles.
func TestAfekAllocations(t *testing.T) {
	for _, n := range []int{2, 8, 16} {
		s, err := snapshot.NewAfek(n, uint64(0))
		if err != nil {
			t.Fatalf("NewAfek: %v", err)
		}
		u, err := s.Updater(0)
		if err != nil {
			t.Fatalf("Updater: %v", err)
		}
		i := uint64(0)
		if got := testing.AllocsPerRun(200, func() { i++; u.Update(i) }); got > 2 {
			t.Errorf("n=%d: handle Update allocated %v times per run, want <= 2 (cell, embedded view)", n, got)
		}
		dst := make([]uint64, n)
		if got := testing.AllocsPerRun(200, func() { u.ScanInto(dst) }); got != 0 {
			t.Errorf("n=%d: ScanInto allocated %v times per run, want 0", n, got)
		}
		if dst[0] != i {
			t.Fatalf("n=%d: ScanInto shows component 0 = %d, want %d", n, dst[0], i)
		}
		if got := testing.AllocsPerRun(200, func() { _ = s.Scan() }); got > 4 {
			t.Errorf("n=%d: Scan allocated %v times per run, want <= 4", n, got)
		}
	}
}

// TestAuditableSnapshotAllocations pins Algorithm 3: an update allocates what
// it publishes — S's cell and embedded view, and the stripped view it logs
// under its version number — and nothing for M, which holds that number in
// place. A scan allocates only the private copy it returns, silent or
// effective: the view it copies is in the log.
func TestAuditableSnapshotAllocations(t *testing.T) {
	for _, n := range []int{2, 8, 16} {
		reg := newAuditableSnap(t, n, 1, 0)
		u, err := reg.Updater(0, otp.NewSeededNonces(1, 1))
		if err != nil {
			t.Fatalf("Updater: %v", err)
		}
		sc, err := reg.Scanner(0)
		if err != nil {
			t.Fatalf("Scanner: %v", err)
		}
		i := uint64(0)
		update := func() {
			i++
			if err := u.Update(i); err != nil {
				t.Fatal(err)
			}
		}
		update() // materialize M's first history block
		if got := testing.AllocsPerRun(200, update); got > 3 {
			t.Errorf("n=%d: Update allocated %v times per run, want <= 3 (cell, embedded view, stripped view)", n, got)
		}
		sc.Scan()
		if got := testing.AllocsPerRun(200, func() { _ = sc.Scan() }); got > 1 {
			t.Errorf("n=%d: silent Scan allocated %v times per run, want <= 1 (the copy)", n, got)
		}
		withUpdate := testing.AllocsPerRun(200, func() {
			update()
			if sc.Scan()[0] != i {
				t.Fatal("effective scan missed the update before it")
			}
		})
		if withUpdate > 3+1 {
			t.Errorf("n=%d: Update + effective Scan allocated %v times per run, want <= 4", n, withUpdate)
		}
		// An audit that finds nothing new allocates nothing: the row
		// callback it hands M's auditor stays on its stack.
		a := reg.Auditor()
		if _, err := a.Audit(); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() { a.Audit() }); got != 0 {
			t.Errorf("n=%d: idle Audit allocated %v times per run, want 0", n, got)
		}
	}
}

// TestAuditableCostsNothingUpFront: the capacity of a snapshot bounds its
// history and its view log, it does not size them at creation. At the default
// capacity an auditable snapshot allocates less than 8 KiB before its first
// update.
func TestAuditableCostsNothingUpFront(t *testing.T) {
	pads, err := otp.NewKeyedPads(otp.KeyFromSeed(11), 2)
	if err != nil {
		t.Fatalf("NewKeyedPads: %v", err)
	}
	bytes := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := snapshot.NewAuditable(4, 2, uint64(0), pads); err != nil {
			t.Fatalf("NewAuditable: %v", err)
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if bytes >= 8<<10 {
		t.Fatalf("a default-capacity snapshot took %d bytes before its first update, want < 8 KiB", bytes)
	}
}
