// Package ida implements Rabin's information dispersal algorithm over
// GF(2^8): a value is encoded into n shares such that any k reconstruct it
// and fewer than k reveal nothing about missing positions beyond length. The
// dispersal cluster (package auditreg/cluster) splits register values across
// nodes with it, following Cogo & Bessani: a reader must gather k shares —
// and therefore be logged by k nodes — to learn the value.
//
// Encoding streams row-major: the value is de-interleaved once into k
// contiguous stripes (stripe j holds the bytes at positions ≡ j mod k), and
// each share row is then accumulated with whole-stripe gf256.MulAdd kernels —
// one table lookup and one XOR per byte — instead of a per-column
// matrix-vector product. Decoding caches the inverted k×k submatrix per
// share-index set, so steady-state reconstruction from the same quorum pays
// the Gauss-Jordan elimination once.
package ida

import (
	"fmt"
	"sort"
	"sync"

	"auditreg/internal/gf256"
)

// Coder encodes values into n shares with reconstruction threshold k, using
// a Vandermonde matrix over GF(2^8) (rows x_i = i+1, columns x_i^j): every
// k×k submatrix is invertible because the x_i are distinct.
//
// Construct with New. Safe for concurrent use.
type Coder struct {
	f      *gf256.Field
	n, k   int
	matrix [][]byte // n rows × k columns

	mu  sync.Mutex
	inv map[string][][]byte // inverted submatrix per k-share index set
}

// MaxShares bounds n: Vandermonde rows need distinct nonzero points in
// GF(2^8).
const MaxShares = 255

// maxCachedInverses bounds the decode cache. Real deployments reconstruct
// from a handful of recurring quorums; if a workload somehow cycles through
// more index sets than this, the cache resets rather than growing without
// bound.
const maxCachedInverses = 512

// New returns a coder producing n shares with threshold k.
func New(n, k int) (*Coder, error) {
	if k < 1 || n < k || n > MaxShares {
		return nil, fmt.Errorf("ida: need 1 <= k <= n <= %d, got n=%d k=%d", MaxShares, n, k)
	}
	f := gf256.New()
	matrix := make([][]byte, n)
	for i := range matrix {
		row := make([]byte, k)
		x := byte(i + 1)
		for j := 0; j < k; j++ {
			row[j] = f.Pow(x, j)
		}
		matrix[i] = row
	}
	return &Coder{f: f, n: n, k: k, matrix: matrix, inv: make(map[string][][]byte)}, nil
}

// Shares returns n, the number of shares produced.
func (c *Coder) Shares() int { return c.n }

// Threshold returns k, the number of shares needed to reconstruct.
func (c *Coder) Threshold() int { return c.k }

// ShareSize returns the per-share byte size for a value of dataLen bytes.
func (c *Coder) ShareSize(dataLen int) int { return (dataLen + c.k - 1) / c.k }

// Split encodes data into n shares. Data is implicitly zero-padded to a
// multiple of k; Reconstruct needs the original length to strip the padding.
func (c *Coder) Split(data []byte) [][]byte {
	cols := c.ShareSize(len(data))

	// De-interleave into k contiguous stripes (one zeroed slab), so each
	// matrix coefficient applies to a whole contiguous row.
	stripeSlab := make([]byte, c.k*cols)
	stripes := make([][]byte, c.k)
	for j := range stripes {
		stripes[j] = stripeSlab[j*cols : (j+1)*cols]
	}
	// (An index-counter walk, not p%k / p/k per byte: a hardware divide per
	// byte would rival the field arithmetic it feeds.)
	p := 0
	for col := 0; col < cols; col++ {
		for j := 0; j < c.k && p < len(data); j++ {
			stripes[j][col] = data[p]
			p++
		}
	}

	// Accumulate share i = Σ_j matrix[i][j] · stripe j, row-major. The
	// share slab is zeroed by make, so MulAdd accumulates from zero.
	shareSlab := make([]byte, c.n*cols)
	shares := make([][]byte, c.n)
	for i := range shares {
		shares[i] = shareSlab[i*cols : (i+1)*cols]
		c.accumulate(shares[i], stripes, c.matrix[i])
	}
	return shares
}

// accumulate adds Σ_j coeffs[j] · rows[j] into dst, four rows per pass: the
// fused kernels read dst once per pass instead of once per row.
func (c *Coder) accumulate(dst []byte, rows [][]byte, coeffs []byte) {
	j := 0
	for ; j+3 < len(rows); j += 4 {
		c.f.MulAdd4(dst, rows[j], rows[j+1], rows[j+2], rows[j+3],
			coeffs[j], coeffs[j+1], coeffs[j+2], coeffs[j+3])
	}
	if j+1 < len(rows) {
		c.f.MulAdd2(dst, rows[j], rows[j+1], coeffs[j], coeffs[j+1])
		j += 2
	}
	if j < len(rows) {
		c.f.MulAdd(dst, rows[j], coeffs[j])
	}
}

// Reconstruct recovers a value of length dataLen from at least k shares,
// given as a map from share index (0-based) to share bytes.
func (c *Coder) Reconstruct(shares map[int][]byte, dataLen int) ([]byte, error) {
	if len(shares) < c.k {
		return nil, fmt.Errorf("ida: have %d shares, need %d", len(shares), c.k)
	}
	cols := c.ShareSize(dataLen)

	// Pick the k smallest share indices. Deterministic selection (rather
	// than the map's randomized iteration order) keys the inverse cache
	// canonically, so a steady quorum hits it on every call.
	idx := make([]int, 0, len(shares))
	for i := range shares {
		if i < 0 || i >= c.n {
			return nil, fmt.Errorf("ida: share index %d out of range [0, %d)", i, c.n)
		}
		idx = append(idx, i)
	}
	sort.Ints(idx)
	idx = idx[:c.k]
	for _, i := range idx {
		if len(shares[i]) != cols {
			return nil, fmt.Errorf("ida: share %d has %d bytes, want %d", i, len(shares[i]), cols)
		}
	}
	inv, err := c.invertedSubmatrix(idx)
	if err != nil {
		return nil, err
	}

	// Stripe j = Σ_r inv[j][r] · share idx[r], row-major over whole shares,
	// then re-interleave the stripes into the original byte order.
	picked := make([][]byte, c.k)
	for r, i := range idx {
		picked[r] = shares[i]
	}
	stripeSlab := make([]byte, c.k*cols)
	stripes := make([][]byte, c.k)
	for j := range stripes {
		stripes[j] = stripeSlab[j*cols : (j+1)*cols]
		c.accumulate(stripes[j], picked, inv[j])
	}
	out := make([]byte, dataLen)
	p := 0
	for col := 0; col < cols; col++ {
		for j := 0; j < c.k && p < dataLen; j++ {
			out[p] = stripes[j][col]
			p++
		}
	}
	return out, nil
}

// Verify reconstructs a value and cross-checks every provided share against
// it: the reconstructed value is re-encoded and each share compared to its
// recomputed row, returning the (sorted) indices that disagree. Information
// dispersal has no inherent integrity — any k shares decode to SOMETHING —
// so detection rides entirely on redundancy: with more than k shares, a
// corrupted share either disagrees with the value the canonical k decoded
// (it is reported), or it was among the canonical k and skewed the decode,
// making the honest surplus shares disagree instead. Either way bad is
// non-empty whenever any share is corrupt and len(shares) > k; the indices
// say only WHERE disagreement surfaced, not which share lied. With exactly
// k shares there is no redundancy and Verify reports nothing — callers that
// need detection must supply a surplus.
func (c *Coder) Verify(shares map[int][]byte, dataLen int) (data []byte, bad []int, err error) {
	data, err = c.Reconstruct(shares, dataLen)
	if err != nil {
		return nil, nil, err
	}
	expect := c.Split(data)
	for i, s := range shares {
		if !bytesEqual(s, expect[i]) {
			bad = append(bad, i)
		}
	}
	sort.Ints(bad)
	return data, bad, nil
}

// bytesEqual avoids importing bytes for one comparison.
func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// invertedSubmatrix returns the inverse of the k×k submatrix whose rows are
// the dispersal-matrix rows at idx, memoized per index set. idx must be the
// canonical (sorted) selection: the order permutes the inverse's columns, so
// it is part of the cache contract.
func (c *Coder) invertedSubmatrix(idx []int) ([][]byte, error) {
	key := make([]byte, len(idx))
	for p, i := range idx {
		key[p] = byte(i)
	}
	c.mu.Lock()
	inv, ok := c.inv[string(key)]
	c.mu.Unlock()
	if ok {
		return inv, nil
	}

	sub := make([][]byte, c.k)
	for r, i := range idx {
		sub[r] = c.matrix[i]
	}
	inv, ok = c.f.InvertMatrix(sub)
	if !ok {
		return nil, fmt.Errorf("ida: submatrix not invertible (corrupt share indices?)")
	}
	c.mu.Lock()
	if len(c.inv) >= maxCachedInverses {
		c.inv = make(map[string][][]byte)
	}
	c.inv[string(key)] = inv
	c.mu.Unlock()
	return inv, nil
}
