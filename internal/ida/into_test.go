package ida

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// TestIntoKernelsMatchMapForms holds the positional kernels against the map
// forms, for every geometry n ≤ 7 (every threshold, not only the cluster's),
// every subset of at least k shares, clean and with one share corrupted:
// same value, same disagreeing positions, with one Scratch reused throughout
// — stale stripes from a previous call must never leak into the next.
func TestIntoKernelsMatchMapForms(t *testing.T) {
	var sc Scratch
	for n := 1; n <= 7; n++ {
		for k := 1; k <= n; k++ {
			c, err := New(n, k)
			if err != nil {
				t.Fatalf("New(%d, %d): %v", n, k, err)
			}
			for _, value := range [][]byte{
				{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x23, 0x45, 0x67},
				[]byte("odd-length value!"),
				{},
			} {
				cols := c.ShareSize(len(value))
				want := c.Split(value)
				got := ShareRows(n, cols)
				for _, row := range got {
					for i := range row {
						row[i] = 0xA5 // SplitInto overwrites, never accumulates into, dst
					}
				}
				c.SplitInto(got, value, &sc)
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("n=%d k=%d: SplitInto share %d = %x, Split = %x", n, k, i, got[i], want[i])
					}
				}
				if cols == 0 {
					continue
				}
				for size := k; size <= n; size++ {
					subsets(n, size, func(pos []int) {
						for corrupt := -1; corrupt < size; corrupt++ {
							shares := ShareRows(n, cols)
							m := make(map[int][]byte, size)
							for _, i := range pos {
								copy(shares[i], want[i])
								m[i] = shares[i]
							}
							if corrupt >= 0 {
								shares[pos[corrupt]][0] ^= 0x40
							}
							label := fmt.Sprintf("n=%d k=%d pos=%v corrupt=%d", n, k, pos, corrupt)

							wantVal, err := c.Reconstruct(m, len(value))
							if err != nil {
								t.Fatalf("%s: Reconstruct: %v", label, err)
							}
							gotVal := make([]byte, len(value))
							if err := c.ReconstructInto(gotVal, shares, pos, &sc); err != nil {
								t.Fatalf("%s: ReconstructInto: %v", label, err)
							}
							if !bytes.Equal(gotVal, wantVal) {
								t.Fatalf("%s: ReconstructInto = %x, Reconstruct = %x", label, gotVal, wantVal)
							}

							wantVal, wantBad, err := c.Verify(m, len(value))
							if err != nil {
								t.Fatalf("%s: Verify: %v", label, err)
							}
							expect := ShareRows(n, cols)
							gotBad, err := c.VerifyInto(gotVal, shares, pos, expect, nil, &sc)
							if err != nil {
								t.Fatalf("%s: VerifyInto: %v", label, err)
							}
							if !bytes.Equal(gotVal, wantVal) || !slices.Equal(gotBad, wantBad) {
								t.Fatalf("%s: VerifyInto = %x bad %v, Verify = %x bad %v", label, gotVal, gotBad, wantVal, wantBad)
							}
							if reenc := c.Split(gotVal); !slices.EqualFunc(expect, reenc, bytes.Equal) {
								t.Fatalf("%s: VerifyInto left expect = %x, the value re-encodes to %x", label, expect, reenc)
							}
						}
					})
				}
			}
		}
	}
}

// TestReconstructIntoValidation: the positional form refuses what the map
// form cannot even express.
func TestReconstructIntoValidation(t *testing.T) {
	c, _ := New(5, 3)
	shares := c.Split([]byte("8 bytes!"))
	out := make([]byte, 8)
	var sc Scratch
	for name, pos := range map[string][]int{
		"too few":       {0, 1},
		"out of range":  {0, 1, 5},
		"negative":      {-1, 1, 2},
		"descending":    {2, 1, 0},
		"duplicate":     {0, 1, 1},
		"surplus unord": {0, 1, 2, 4, 3},
	} {
		if err := c.ReconstructInto(out, shares, pos, &sc); err == nil {
			t.Errorf("%s: positions %v accepted", name, pos)
		}
	}
	shares[1] = shares[1][:1]
	if err := c.ReconstructInto(out, shares, []int{0, 1, 2}, &sc); err == nil {
		t.Error("a short share among the first k accepted")
	}
}

// TestIntoKernelsAllocationFree pins the positional kernels at zero heap
// allocations with a warm Scratch and a cached inverse: the cluster's read
// and write paths run them under locks they already hold, with scratch they
// keep.
func TestIntoKernelsAllocationFree(t *testing.T) {
	c, err := New(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	value := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	cols := c.ShareSize(len(value))
	shares, expect := ShareRows(5, cols), ShareRows(5, cols)
	out := make([]byte, len(value))
	pos := []int{0, 2, 3, 4}
	bad := make([]int, 0, 5)
	var sc Scratch
	c.SplitInto(shares, value, &sc)
	if err := c.ReconstructInto(out, shares, pos, &sc); err != nil { // warms the inverse cache
		t.Fatal(err)
	}
	for what, fn := range map[string]func(){
		"SplitInto": func() { c.SplitInto(expect, value, &sc) },
		"ReconstructInto": func() {
			if err := c.ReconstructInto(out, shares, pos, &sc); err != nil {
				t.Fatal(err)
			}
		},
		"VerifyInto": func() {
			if got, err := c.VerifyInto(out, shares, pos, expect, bad[:0], &sc); err != nil || len(got) != 0 {
				t.Fatalf("VerifyInto = %v, %v", got, err)
			}
		},
	} {
		if n := testing.AllocsPerRun(1000, fn); n != 0 {
			t.Errorf("%s allocated %v times per run, want 0", what, n)
		}
	}
	if !bytes.Equal(out, value) {
		t.Fatalf("round trip = %x, want %x", out, value)
	}
}
