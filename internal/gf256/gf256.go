// Package gf256 implements arithmetic over the finite field GF(2^8) with the
// AES-style reduction polynomial x^8+x^4+x^3+x^2+1 (0x11d generator tables).
// It is the algebra under the information-dispersal scheme (internal/ida)
// that the dispersal cluster (package auditreg/cluster) splits values with.
package gf256

// Field provides GF(2^8) arithmetic via log/exp tables, plus a full product
// table feeding the bulk kernels of mul.go.
// Construct with New; the zero value is not usable.
type Field struct {
	exp [512]byte // doubled to skip the mod 255 in Mul
	log [256]byte
	mul [256][256]byte // mul[a][b] = a*b; rows feed MulAdd/MulSlice
}

// New builds the field tables. The polynomial 0x11d is primitive with root
// α = 2, so successive powers of 2 enumerate the whole multiplicative group.
func New() *Field {
	f := &Field{}
	x := byte(1)
	for i := 0; i < 255; i++ {
		f.exp[i] = x
		f.log[x] = byte(i)
		hi := x & 0x80
		x <<= 1
		if hi != 0 {
			x ^= 0x1d
		}
	}
	for i := 255; i < 512; i++ {
		f.exp[i] = f.exp[i-255]
	}
	f.buildMulTable()
	return f
}

// Add returns a+b (XOR in characteristic 2).
func (f *Field) Add(a, b byte) byte { return a ^ b }

// Mul returns a*b.
func (f *Field) Mul(a, b byte) byte { return f.mul[a][b] }

// Inv returns the multiplicative inverse of a; Inv(0) panics, as division by
// zero is a programming error in matrix inversion code.
func (f *Field) Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return f.exp[255-int(f.log[a])]
}

// Div returns a/b; Div(_, 0) panics.
func (f *Field) Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return f.exp[int(f.log[a])+255-int(f.log[b])]
}

// Pow returns a^n.
func (f *Field) Pow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	idx := (int(f.log[a]) * n) % 255
	if idx < 0 {
		idx += 255
	}
	return f.exp[idx]
}

// MulVec returns the dot product of row and vec.
func (f *Field) MulVec(row, vec []byte) byte {
	var acc byte
	for i := range row {
		acc ^= f.mul[row[i]][vec[i]]
	}
	return acc
}

// InvertMatrix inverts a square matrix in place using Gauss-Jordan
// elimination, returning the inverse. It returns ok=false for singular
// matrices. The input is not modified.
func (f *Field) InvertMatrix(m [][]byte) (inv [][]byte, ok bool) {
	n := len(m)
	// Augment [m | I].
	aug := make([][]byte, n)
	for i := range aug {
		aug[i] = make([]byte, 2*n)
		copy(aug[i], m[i])
		aug[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Find pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if aug[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, false
		}
		aug[col], aug[pivot] = aug[pivot], aug[col]
		// Normalize pivot row.
		pinv := f.Inv(aug[col][col])
		for c := 0; c < 2*n; c++ {
			aug[col][c] = f.Mul(aug[col][c], pinv)
		}
		// Eliminate other rows.
		for r := 0; r < n; r++ {
			if r == col || aug[r][col] == 0 {
				continue
			}
			factor := aug[r][col]
			for c := 0; c < 2*n; c++ {
				aug[r][c] ^= f.Mul(factor, aug[col][c])
			}
		}
	}
	inv = make([][]byte, n)
	for i := range inv {
		inv[i] = aug[i][n:]
	}
	return inv, true
}
