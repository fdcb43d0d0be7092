package maxreg_test

import (
	"sync"
	"testing"
	"testing/quick"

	"auditreg/internal/core"
	"auditreg/internal/maxreg"
	"auditreg/internal/otp"
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

// lessNonced is the order core.MaxRegister keeps M in for lessU64.
func lessNonced(a, b core.Nonced[uint64]) bool {
	if a.Val != b.Val {
		return a.Val < b.Val
	}
	return a.Nonce < b.Nonce
}

// mBackends are the two Ms a uint64 core.MaxRegister runs on: the word M its
// value type selects, and CASMax injected through WithM. Each call builds a
// fresh M.
var mBackends = map[string]func() []core.Option[uint64]{
	"word-M": func() []core.Option[uint64] { return nil },
	"cas-M": func() []core.Option[uint64] {
		return []core.Option[uint64]{core.WithM[uint64](maxreg.NewCASMax(core.Nonced[uint64]{}, lessNonced))}
	},
}

// TestQuickMaxBackendsAgree replays random writeMax/read scripts against
// CASMax, the LockedMax reference, and an auditable max register over each
// M; all must behave identically.
func TestQuickMaxBackendsAgree(t *testing.T) {
	t.Parallel()
	f := func(ops []uint16) bool {
		cas := maxreg.NewCASMax[uint64](0, lessU64)
		locked := maxreg.NewLockedMax[uint64](0, lessU64)
		regs := map[string]*core.MaxRegister[uint64]{}
		writers := map[string]*core.MaxWriter[uint64]{}
		readers := map[string]*core.Reader[uint64]{}
		for name, opts := range mBackends {
			regs[name] = newAuditable(t, 1, 0, opts()...)
			writers[name] = newWriter(t, regs[name], 1)
			readers[name] = newAudReader(t, regs[name], 0)
		}
		agree := func() bool {
			want := locked.Read()
			for name, reg := range regs {
				if reg.Peek() != want || readers[name].Read() != want {
					return false
				}
			}
			return cas.Read() == want
		}
		for _, op := range ops {
			if op%3 == 0 {
				if !agree() {
					return false
				}
				continue
			}
			v := uint64(op)
			cas.WriteMax(v)
			locked.WriteMax(v)
			for _, w := range writers {
				if err := w.WriteMax(v); err != nil {
					return false
				}
			}
		}
		return agree()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMBackendAllocations pins what each M costs a uint64 writeMax that
// raises the register: the word M rewrites its pair in place, CASMax swaps in
// a fresh box. The rest of the writeMax allocates nothing (FixedPads, and
// core's alloc tests).
func TestMBackendAllocations(t *testing.T) {
	pads, err := otp.NewFixedPads(0xA5A5, 0x5A5A)
	if err != nil {
		t.Fatalf("NewFixedPads: %v", err)
	}
	for name, want := range map[string]float64{"word-M": 0, "cas-M": 1} {
		reg, err := core.NewMaxRegister[uint64](2, 0, lessU64, pads, mBackends[name]()...)
		if err != nil {
			t.Fatalf("NewMaxRegister: %v", err)
		}
		w := newWriter(t, reg, 1)
		v := uint64(1)
		if err := w.WriteMax(v); err != nil { // materialize history chunk 0
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() {
			v++
			if err := w.WriteMax(v); err != nil {
				t.Fatal(err)
			}
		}); n != want {
			t.Errorf("%s: WriteMax allocated %v times per run, want %v", name, n, want)
		}
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

// TestMaxConcurrentConvergence: concurrent writers each see their own write
// and never a smaller maximum, and all converge on the largest write — on
// the bare max registers and on an auditable one over each M, where every
// goroutine holds its own writer and reader handles.
func TestMaxConcurrentConvergence(t *testing.T) {
	t.Parallel()
	const procs, per = 8, 1000
	type handles func(t *testing.T, p int) (writeMax func(uint64), read func() uint64)
	bare := func(r maxreg.MaxReg[uint64]) handles {
		return func(*testing.T, int) (func(uint64), func() uint64) { return r.WriteMax, r.Read }
	}
	regs := map[string]handles{
		"cas":    bare(maxreg.NewCASMax[uint64](0, lessU64)),
		"locked": bare(maxreg.NewLockedMax[uint64](0, lessU64)),
	}
	for name, opts := range mBackends {
		reg := newAuditable(t, procs, 0, opts()...)
		regs[name] = func(t *testing.T, p int) (func(uint64), func() uint64) {
			w, rd := newWriter(t, reg, uint8(p+1)), newAudReader(t, reg, p)
			return func(v uint64) {
				if err := w.WriteMax(v); err != nil {
					t.Errorf("WriteMax: %v", err)
				}
			}, rd.Read
		}
	}
	for name, h := range regs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var wg sync.WaitGroup
			var final func() uint64
			for p := 0; p < procs; p++ {
				writeMax, read := h(t, p)
				final = read
				wg.Add(1)
				go func() {
					defer wg.Done()
					var localMax uint64
					for i := 0; i < per; i++ {
						v := uint64(p*per + i)
						writeMax(v)
						got := read()
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
			if got := final(); got != want {
				t.Fatalf("final max = %d, want %d", got, want)
			}
		})
	}
}
