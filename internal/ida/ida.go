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
	"bytes"
	"fmt"
	"slices"
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

// Scratch is the working memory of the Into kernels: the de-interleaved
// stripes of one value. The zero value is ready; a caller on a hot path keeps
// one per goroutine (or under whatever lock serializes its decodes) and the
// kernels then allocate nothing.
type Scratch struct {
	slab    []byte
	stripes [][]byte // k zeroed rows of cols bytes over slab
	picked  [][]byte // the k share rows a reconstruction reads
}

// rows returns k zeroed stripes of cols bytes.
func (sc *Scratch) rows(k, cols int) [][]byte {
	if cap(sc.slab) < k*cols {
		sc.slab = make([]byte, k*cols)
	}
	if cap(sc.stripes) < k {
		sc.stripes = make([][]byte, k)
	}
	slab := sc.slab[:k*cols]
	clear(slab)
	stripes := sc.stripes[:k]
	for j := range stripes {
		stripes[j] = slab[j*cols : (j+1)*cols]
	}
	return stripes
}

// Shares are addressed by position: a share set is a [][]byte of n rows, row
// i holding share i, plus — where not every share is present — the ascending
// list of the positions that are. The map forms below (Split, Reconstruct,
// Verify) are thin wrappers for callers off the hot path.

// SplitInto encodes data into the n rows of dst, each ShareSize(len(data))
// bytes long. Data is implicitly zero-padded to a multiple of k;
// ReconstructInto needs the original length to strip the padding.
func (c *Coder) SplitInto(dst [][]byte, data []byte, sc *Scratch) {
	cols := c.ShareSize(len(data))

	// De-interleave into k contiguous stripes, so each matrix coefficient
	// applies to a whole contiguous row. (An index-counter walk, not p%k /
	// p/k per byte: a hardware divide per byte would rival the field
	// arithmetic it feeds.)
	stripes := sc.rows(c.k, cols)
	p := 0
	for col := 0; col < cols; col++ {
		for j := 0; j < c.k && p < len(data); j++ {
			stripes[j][col] = data[p]
			p++
		}
	}

	// Accumulate share i = Σ_j matrix[i][j] · stripe j, row-major, from zero.
	for i := 0; i < c.n; i++ {
		row := dst[i][:cols]
		clear(row)
		c.accumulate(row, stripes, c.matrix[i])
	}
}

// Split encodes data into n freshly allocated shares.
func (c *Coder) Split(data []byte) [][]byte {
	shares := ShareRows(c.n, c.ShareSize(len(data)))
	var sc Scratch
	c.SplitInto(shares, data, &sc)
	return shares
}

// ShareRows returns n rows of cols bytes over one slab: a share set for the
// Into kernels to write into.
func ShareRows(n, cols int) [][]byte {
	slab := make([]byte, n*cols)
	rows := make([][]byte, n)
	for i := range rows {
		rows[i] = slab[i*cols : (i+1)*cols]
	}
	return rows
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

// ReconstructInto recovers a value of len(out) bytes from the shares at the
// first k of the positions in pos, which must be ascending. Taking the
// smallest positions keys the inverse cache canonically, so a steady quorum
// hits it on every call.
func (c *Coder) ReconstructInto(out []byte, shares [][]byte, pos []int, sc *Scratch) error {
	if len(pos) < c.k {
		return fmt.Errorf("ida: have %d shares, need %d", len(pos), c.k)
	}
	cols := c.ShareSize(len(out))
	for r, i := range pos {
		if i < 0 || i >= c.n || i >= len(shares) {
			return fmt.Errorf("ida: share index %d out of range [0, %d)", i, c.n)
		}
		if r > 0 && i <= pos[r-1] {
			return fmt.Errorf("ida: share position %d follows %d: not ascending", i, pos[r-1])
		}
		if r < c.k && len(shares[i]) != cols {
			return fmt.Errorf("ida: share %d has %d bytes, want %d", i, len(shares[i]), cols)
		}
	}
	inv, err := c.invertedSubmatrix(pos[:c.k])
	if err != nil {
		return err
	}

	// Stripe j = Σ_r inv[j][r] · share pos[r], row-major over whole shares,
	// then re-interleave the stripes into the original byte order.
	stripes := sc.rows(c.k, cols)
	if cap(sc.picked) < c.k {
		sc.picked = make([][]byte, c.k)
	}
	picked := sc.picked[:c.k]
	for r, i := range pos[:c.k] {
		picked[r] = shares[i]
	}
	for j := range stripes {
		c.accumulate(stripes[j], picked, inv[j])
	}
	p := 0
	for col := 0; col < cols; col++ {
		for j := 0; j < c.k && p < len(out); j++ {
			out[p] = stripes[j][col]
			p++
		}
	}
	return nil
}

// stackShares is the n up to which the map forms convert their argument in
// stack buffers: every cluster geometry in use.
const stackShares = 16

// byPosition turns the map form of a share set into the positional one, in
// the given buffers when they are large enough.
func (c *Coder) byPosition(shares map[int][]byte, rows [][]byte, pos []int) ([][]byte, []int, error) {
	if c.n <= cap(rows) {
		rows = rows[:c.n]
	} else {
		rows = make([][]byte, c.n)
	}
	for i, s := range shares {
		if i < 0 || i >= c.n {
			return nil, nil, fmt.Errorf("ida: share index %d out of range [0, %d)", i, c.n)
		}
		rows[i] = s
		pos = append(pos, i)
	}
	slices.Sort(pos)
	return rows, pos, nil
}

// Reconstruct recovers a value of length dataLen from at least k shares,
// given as a map from share index (0-based) to share bytes.
func (c *Coder) Reconstruct(shares map[int][]byte, dataLen int) ([]byte, error) {
	var rb [stackShares][]byte
	var pb [stackShares]int
	rows, pos, err := c.byPosition(shares, rb[:0], pb[:0])
	if err != nil {
		return nil, err
	}
	out := make([]byte, dataLen)
	var sc Scratch
	if err := c.ReconstructInto(out, rows, pos, &sc); err != nil {
		return nil, err
	}
	return out, nil
}

// VerifyInto reconstructs a value into out and cross-checks every share at
// pos against it: the value is re-encoded into the n rows of expect — left
// there for the caller, who may have more shares to hold against it — and
// the positions whose share disagrees are appended to bad, in pos order.
// Information dispersal has no inherent integrity — any k shares decode to
// SOMETHING — so detection rides entirely on redundancy: with more than k
// shares, a corrupted share either disagrees with the value the canonical k
// decoded (it is reported), or it was among the canonical k and skewed the
// decode, making the honest surplus shares disagree instead. Either way bad
// is non-empty whenever any share is corrupt and len(pos) > k; the positions
// say only WHERE disagreement surfaced, not which share lied. With exactly
// k shares there is no redundancy and nothing is reported — callers that
// need detection must supply a surplus.
func (c *Coder) VerifyInto(out []byte, shares [][]byte, pos []int, expect [][]byte, bad []int, sc *Scratch) ([]int, error) {
	if err := c.ReconstructInto(out, shares, pos, sc); err != nil {
		return bad, err
	}
	c.SplitInto(expect, out, sc)
	for _, i := range pos {
		if !bytes.Equal(shares[i], expect[i]) {
			bad = append(bad, i)
		}
	}
	return bad, nil
}

// Verify is VerifyInto over the map form: the reconstructed value and the
// (sorted) indices that disagree with it.
func (c *Coder) Verify(shares map[int][]byte, dataLen int) (data []byte, bad []int, err error) {
	var rb [stackShares][]byte
	var pb [stackShares]int
	rows, pos, err := c.byPosition(shares, rb[:0], pb[:0])
	if err != nil {
		return nil, nil, err
	}
	data = make([]byte, dataLen)
	var sc Scratch
	bad, err = c.VerifyInto(data, rows, pos, ShareRows(c.n, c.ShareSize(dataLen)), nil, &sc)
	if err != nil {
		return nil, nil, err
	}
	return data, bad, nil
}

// invertedSubmatrix returns the inverse of the k×k submatrix whose rows are
// the dispersal-matrix rows at idx, memoized per index set. idx must be the
// canonical (sorted) selection: the order permutes the inverse's columns, so
// it is part of the cache contract.
func (c *Coder) invertedSubmatrix(idx []int) ([][]byte, error) {
	var kb [MaxShares]byte // on the stack: a cache hit allocates nothing
	key := kb[:len(idx)]
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
