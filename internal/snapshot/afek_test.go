package snapshot_test

import (
	"sync"
	"testing"
	"testing/quick"

	"auditreg/internal/snapshot"
)

func TestAfekValidation(t *testing.T) {
	t.Parallel()
	if _, err := snapshot.NewAfek(0, 0); err == nil {
		t.Error("n=0 accepted")
	}
	s, err := snapshot.NewAfek(3, 7)
	if err != nil {
		t.Fatalf("NewAfek: %v", err)
	}
	if s.Components() != 3 {
		t.Fatalf("Components = %d", s.Components())
	}
	if _, err := s.Updater(3); err == nil {
		t.Error("out-of-range updater accepted")
	}
	if _, err := s.Updater(-1); err == nil {
		t.Error("negative updater accepted")
	}
}

func TestAfekInitialScan(t *testing.T) {
	t.Parallel()
	s, err := snapshot.NewAfek(4, 9)
	if err != nil {
		t.Fatalf("NewAfek: %v", err)
	}
	for i, v := range s.Scan() {
		if v != 9 {
			t.Fatalf("component %d = %d, want 9", i, v)
		}
	}
}

func TestAfekSequentialUpdateScan(t *testing.T) {
	t.Parallel()
	s, err := snapshot.NewAfek(3, 0)
	if err != nil {
		t.Fatalf("NewAfek: %v", err)
	}
	u0, _ := s.Updater(0)
	u2, _ := s.Updater(2)
	u0.Update(10)
	u2.Update(30)
	got := s.Scan()
	want := []int{10, 0, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan = %v, want %v", got, want)
		}
	}
}

// TestQuickAfekMatchesLocked replays random update/scan scripts sequentially
// against Afek and the locked reference; both must agree.
func TestQuickAfekMatchesLocked(t *testing.T) {
	t.Parallel()
	type op struct {
		Comp uint8
		Val  uint16
		Scan bool
	}
	f := func(ops []op) bool {
		const n = 4
		afek, err := snapshot.NewAfek(n, uint64(0))
		if err != nil {
			return false
		}
		locked, err := snapshot.NewLocked(n, uint64(0))
		if err != nil {
			return false
		}
		var au, lu [n]snapshot.StoreUpdater[uint64]
		for i := range au {
			au[i], _ = afek.Updater(i)
			lu[i], _ = locked.Updater(i)
		}
		for _, o := range ops {
			if o.Scan {
				a, l := afek.Scan(), locked.Scan()
				for i := range a {
					if a[i] != l[i] {
						return false
					}
				}
				continue
			}
			i := int(o.Comp) % n
			au[i].Update(uint64(o.Val))
			lu[i].Update(uint64(o.Val))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAfekConcurrentRegularity: concurrent scans must be consistent with the
// per-component write orders — each component's value sequence is monotone in
// the writer's own order (values here encode a counter), so every scanned
// view must be component-wise monotone over time at each scanner, and a
// scanner must never see a *later* write in one scan and an *earlier* one in
// a subsequent scan.
func TestAfekConcurrentRegularity(t *testing.T) {
	t.Parallel()
	const (
		n    = 4
		per  = 300
		scns = 4
	)
	s, err := snapshot.NewAfek(n, uint64(0))
	if err != nil {
		t.Fatalf("NewAfek: %v", err)
	}

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		u, err := s.Updater(i)
		if err != nil {
			t.Fatalf("Updater(%d): %v", i, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= per; k++ {
				u.Update(uint64(k))
			}
		}()
	}
	for sc := 0; sc < scns; sc++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := make([]uint64, n)
			for k := 0; k < per; k++ {
				view := s.Scan()
				for i, v := range view {
					if v < prev[i] {
						t.Errorf("scanner saw component %d regress: %d -> %d", i, prev[i], v)
						return
					}
					prev[i] = v
				}
			}
		}()
	}
	wg.Wait()

	final := s.Scan()
	for i, v := range final {
		if v != per {
			t.Fatalf("component %d = %d at quiescence, want %d", i, v, per)
		}
	}
}

// TestAfekScanReflectsOwnUpdate: an updater's subsequent scan always includes
// its own latest update (read-your-writes through linearizability).
func TestAfekScanReflectsOwnUpdate(t *testing.T) {
	t.Parallel()
	s, err := snapshot.NewAfek(2, 0)
	if err != nil {
		t.Fatalf("NewAfek: %v", err)
	}
	u, _ := s.Updater(1)
	for k := 1; k <= 100; k++ {
		u.Update(k)
		if got := s.Scan()[1]; got != k {
			t.Fatalf("scan after Update(%d) shows %d", k, got)
		}
	}
}
