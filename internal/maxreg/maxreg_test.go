package maxreg_test

import (
	"sync"
	"testing"
	"testing/quick"

	"auditreg/internal/maxreg"
)

func lessInt(a, b int) bool { return a < b }

func TestCASMaxSequential(t *testing.T) {
	t.Parallel()
	r := maxreg.NewCASMax(0, lessInt)
	if got := r.Read(); got != 0 {
		t.Fatalf("initial read = %d", got)
	}
	r.WriteMax(5)
	r.WriteMax(3) // lower: no effect
	if got := r.Read(); got != 5 {
		t.Fatalf("read = %d, want 5", got)
	}
	r.WriteMax(9)
	if got := r.Read(); got != 9 {
		t.Fatalf("read = %d, want 9", got)
	}
}

func TestLockedMaxSequential(t *testing.T) {
	t.Parallel()
	r := maxreg.NewLockedMax(0, lessInt)
	r.WriteMax(2)
	r.WriteMax(1)
	if got := r.Read(); got != 2 {
		t.Fatalf("read = %d, want 2", got)
	}
}

// TestQuickMaxBackendsAgree replays random writeMax/read scripts against
// CASMax and the LockedMax reference; they must behave identically.
func TestQuickMaxBackendsAgree(t *testing.T) {
	t.Parallel()
	f := func(ops []uint16) bool {
		lessU64 := func(a, b uint64) bool { return a < b }
		cas := maxreg.NewCASMax[uint64](0, lessU64)
		locked := maxreg.NewLockedMax[uint64](0, lessU64)
		for _, op := range ops {
			if op%3 == 0 {
				if cas.Read() != locked.Read() {
					return false
				}
				continue
			}
			v := uint64(op)
			cas.WriteMax(v)
			locked.WriteMax(v)
		}
		return cas.Read() == locked.Read()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMaxMonotoneReads: for any script, successive reads never decrease.
func TestQuickMaxMonotoneReads(t *testing.T) {
	t.Parallel()
	f := func(vals []uint32) bool {
		r := maxreg.NewCASMax[uint64](0, func(a, b uint64) bool { return a < b })
		var last uint64
		for _, v := range vals {
			r.WriteMax(uint64(v))
			cur := r.Read()
			if cur < last || cur < uint64(v) {
				return false
			}
			last = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxConcurrentConvergence(t *testing.T) {
	t.Parallel()
	regs := map[string]maxreg.MaxReg[uint64]{
		"cas":    maxreg.NewCASMax[uint64](0, func(a, b uint64) bool { return a < b }),
		"locked": maxreg.NewLockedMax[uint64](0, func(a, b uint64) bool { return a < b }),
	}
	for name, r := range regs {
		r := r
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const procs, per = 8, 1000
			var wg sync.WaitGroup
			for p := 0; p < procs; p++ {
				p := p
				wg.Add(1)
				go func() {
					defer wg.Done()
					var localMax uint64
					for i := 0; i < per; i++ {
						v := uint64(p*per + i)
						r.WriteMax(v)
						got := r.Read()
						if got < v {
							t.Errorf("read %d below own write %d", got, v)
							return
						}
						if got < localMax {
							t.Errorf("read regressed: %d after %d", got, localMax)
							return
						}
						localMax = got
					}
				}()
			}
			wg.Wait()
			want := uint64(procs*per - 1)
			if got := r.Read(); got != want {
				t.Fatalf("final max = %d, want %d", got, want)
			}
		})
	}
}
