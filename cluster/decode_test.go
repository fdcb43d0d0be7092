package cluster

import (
	"errors"
	"slices"
	"testing"

	"auditreg/internal/ida"
)

// decodeFixture builds an undialed n=5 f=1 client — decodeShares touches the
// coder, the quarantine and the counters, never a connection — with the
// shares of value laid out by position and a warm decoder.
func decodeFixture(t *testing.T, value uint64) (*Object, [][]byte, *decoder) {
	t.Helper()
	m := SeededMembership([]string{"a", "b", "c", "d", "e"}, 1, 41)
	cod, err := m.coder()
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{m: m, cod: cod, shareLen: m.ShareLen(), suspects: newSuspectSet(m.N())}
	o := &Object{c: c, name: "decode"}
	var data [8]byte
	for i := range data {
		data[i] = byte(value >> (56 - 8*i))
	}
	shares := ida.ShareRows(m.N(), c.shareLen)
	var d decoder
	d.init(c)
	cod.SplitInto(shares, data[:], &d.ida)
	return o, shares, &d
}

// TestDecodeSharesPositional walks the one decode entry point through its
// rules on position-indexed shares: the unverified k-share merge decode, the
// clean verified decode, the consensus search around one corrupt share
// (quarantined by the vote, excluded from the next decode, released by a
// clean one), and an inconclusive set.
func TestDecodeSharesPositional(t *testing.T) {
	const value = 0x0123456789ABCDEF
	o, shares, d := decodeFixture(t, value)
	all := []int{0, 1, 2, 3, 4}

	if v, bad, err := o.decodeShares(shares, []int{1, 3, 4}, false, d); err != nil || v != value || len(bad) != 0 {
		t.Fatalf("k-share merge decode = %#x, %v, %v", v, bad, err)
	}
	if v, bad, err := o.decodeShares(shares, all, true, d); err != nil || v != value || len(bad) != 0 {
		t.Fatalf("clean decode = %#x, %v, %v", v, bad, err)
	}
	if got := o.c.Counters(); got.VerifiedDecodes != 1 || got.ConsensusDecodes != 0 {
		t.Fatalf("counters after a clean decode = %+v", got)
	}

	shares[0][0] ^= 1 // position 0 is among the canonical k: the verify fails, consensus decides
	v, bad, err := o.decodeShares(shares, all, true, d)
	if err != nil || v != value || !slices.Equal(bad, []int{0}) {
		t.Fatalf("decode around one corrupt share = %#x, %v, %v", v, bad, err)
	}
	if got := o.c.Counters(); got.ConsensusDecodes != 1 || got.SuspectMarks != 1 || got.CorruptShares != 1 {
		t.Fatalf("counters after the corrupt decode = %+v", got)
	}
	if got := o.c.suspects.indexes(); !slices.Equal(got, []int{0}) {
		t.Fatalf("quarantined = %v, want [0]", got)
	}
	// Quarantined: the next decode verifies cleanly over the other four — a
	// quorum, so it is accepted outright — and the vote keeps the suspect
	// marked.
	if v, bad, err = o.decodeShares(shares, all, true, d); err != nil || v != value || !slices.Equal(bad, []int{0}) {
		t.Fatalf("decode with the suspect excluded = %#x, %v, %v", v, bad, err)
	}
	if got := o.c.Counters(); got.ConsensusDecodes != 1 || got.VerifiedDecodes != 3 {
		t.Fatalf("counters after the excluded decode = %+v", got)
	}
	shares[0][0] ^= 1
	if v, bad, err = o.decodeShares(shares, all, true, d); err != nil || v != value || len(bad) != 0 {
		t.Fatalf("decode after the node healed = %#x, %v, %v", v, bad, err)
	}
	if got := o.c.Counters(); got.SuspectMarks != 1 || got.SuspectClears != 1 || len(o.c.suspects.indexes()) != 0 {
		t.Fatalf("quarantine not lifted: %+v, suspects %v", got, o.c.suspects.indexes())
	}

	// Two corrupt shares among five: no value has k+f = 4 supporters.
	shares[1][0] ^= 1
	shares[2][0] ^= 2
	if _, _, err := o.decodeShares(shares, all, true, d); !errors.Is(err, errInconclusive) {
		t.Fatalf("decode of an unsupported set = %v, want errInconclusive", err)
	}
}

// TestDecodeSharesAllocationFree pins the decode at zero heap allocations on
// both paths a read takes: the clean verified decode and the consensus
// search around one corrupt share, vote included.
func TestDecodeSharesAllocationFree(t *testing.T) {
	const value = 0xFEEDFACE00C0FFEE
	o, shares, d := decodeFixture(t, value)
	all := []int{0, 1, 2, 3, 4}
	decode := func() {
		if v, _, err := o.decodeShares(shares, all, true, d); err != nil || v != value {
			t.Fatalf("decode = %#x, %v", v, err)
		}
	}
	decode()
	if n := testing.AllocsPerRun(1000, decode); n != 0 {
		t.Errorf("clean decode allocated %v times per run, want 0", n)
	}
	shares[1][1] ^= 0x80
	corrupt := func() {
		o.c.suspects.vote(all, nil) // lift the quarantine: the next decode meets the corrupt share unwarned
		decode()
	}
	corrupt() // warms the consensus subsets' inverses
	before := o.c.Counters().ConsensusDecodes
	if n := testing.AllocsPerRun(1000, corrupt); n != 0 {
		t.Errorf("consensus decode allocated %v times per run, want 0", n)
	}
	if got := o.c.Counters().ConsensusDecodes - before; got < 1000 {
		t.Errorf("%d consensus decodes ran, want >= 1000: the slow path was not measured", got)
	}
}

func TestNextSubset(t *testing.T) {
	idx := []int{0, 1, 2}
	var got [][]int
	for more := true; more; more = nextSubset(idx, 5) {
		got = append(got, slices.Clone(idx))
	}
	if len(got) != 10 || !slices.Equal(got[0], []int{0, 1, 2}) || !slices.Equal(got[9], []int{2, 3, 4}) {
		t.Fatalf("3-subsets of 5 = %v", got)
	}
	if !slices.IsSortedFunc(got, slices.Compare[[]int]) {
		t.Fatalf("subsets not in lexicographic order: %v", got)
	}
}
