package cluster

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"

	"auditreg/internal/ida"
)

// errInconclusive reports that a share set admits no value with quorum
// support: shares disagree and no candidate decode is consistent with k+f
// of them. Strict callers (reads) treat it as "gather more shares and
// retry"; the audit merge reports the pair as Undecided.
var errInconclusive = errors.New("cluster: shares inconclusive: no value reaches quorum support")

// suspectSet is the per-Client quarantine state: node indexes whose shares
// disagreed with an accepted decode and have not decoded cleanly since.
//
// Quarantine is deliberately asymmetric (invariant:
// quarantine-never-blocks-writes): a suspect node still receives every
// write — it may be a victim of transient bit rot or a restart mid-heal, and
// starving it of shares would turn one corrupt answer into a permanently
// lagging replica. Only the READ side discounts it: a suspect's shares are
// excluded from reconstruction whenever enough trusted shares remain, and
// its answers re-enter the decode only as votes (a share matching the
// accepted value clears the suspicion — the node "decodes cleanly again").
type suspectSet struct {
	mu    sync.Mutex
	bad   []bool       // by node position: quarantined
	count atomic.Int32 // how many are; written under mu
}

func newSuspectSet(n int) *suspectSet { return &suspectSet{bad: make([]bool, n)} }

// indexes returns the quarantined node positions, ascending.
func (s *suspectSet) indexes() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for i, bad := range s.bad {
		if bad {
			out = append(out, i)
		}
	}
	return out
}

// quarantined copies the quarantine flags into dst and reports whether any
// is set: the healthy cluster's answer is one atomic load and a clear.
func (s *suspectSet) quarantined(dst []bool) bool {
	if s.count.Load() == 0 {
		clear(dst)
		return false
	}
	s.mu.Lock()
	copy(dst, s.bad)
	s.mu.Unlock()
	return true
}

// trusted appends to dst the positions of pos that are not quarantined and
// returns it — unless that would leave fewer than need, in which case pos
// itself is returned: quarantine must never cost the read its threshold (a
// wrongly suspected majority would otherwise wedge reads forever; with the
// full set the consensus rule still rejects anything f corrupt nodes could
// fake).
func (s *suspectSet) trusted(dst, pos []int, need int) []int {
	s.mu.Lock()
	for _, i := range pos {
		if !s.bad[i] {
			dst = append(dst, i)
		}
	}
	s.mu.Unlock()
	if len(dst) == len(pos) || len(dst) < need {
		return pos
	}
	return dst
}

// vote applies one decode's verdict on the shares at pos: the positions in
// corrupted (a subset of pos, both ascending) are quarantined, the others
// leave quarantine. It returns how many nodes changed state each way.
func (s *suspectSet) vote(pos, corrupted []int) (marks, clears uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, i := range pos {
		bad := len(corrupted) > 0 && corrupted[0] == i
		if bad {
			corrupted = corrupted[1:]
		}
		if s.bad[i] != bad {
			s.bad[i] = bad
			if bad {
				marks++
			} else {
				clears++
			}
		}
	}
	s.count.Add(int32(marks) - int32(clears))
	return marks, clears
}

// Counters is a snapshot of a cluster Client's Byzantine-detection counters.
// All are monotonic over the Client's lifetime.
type Counters struct {
	// VerifiedDecodes counts reconstructions that ran with surplus shares —
	// every one was consistency-checked against a re-encode before its value
	// was accepted (invariant: verified-decode-when-surplus).
	VerifiedDecodes uint64
	// ConsensusDecodes counts decodes that could not take the clean fast
	// path (some share disagreed) and were resolved by the quorum-support
	// search instead.
	ConsensusDecodes uint64
	// CorruptShares counts individual shares that disagreed with an accepted
	// decode, summed over reads and audit merges. One persistently
	// corrupting node increments this on every read that sees its share.
	CorruptShares uint64
	// SuspectMarks / SuspectClears count quarantine transitions. A node
	// oscillating between the two is corrupting intermittently.
	SuspectMarks  uint64
	SuspectClears uint64

	// The read path's accounting, client-side only. FetchLegs: share fetches
	// started (a quiet round costs n−f). WidenedOn*: rounds that asked the
	// nodes their first wave left out, by the evidence — a first-wave leg
	// failed, the quorum did not decide, the hedge delay passed with it still
	// short. FullWaveReads: rounds that probed beyond the quorum unprompted.
	FetchLegs, FullWaveReads                                 uint64
	WidenedOnLegError, WidenedOnInconclusive, WidenedOnHedge uint64
}

// WidenedReads is the number of read rounds that widened, whatever the cause.
func (c Counters) WidenedReads() uint64 {
	return c.WidenedOnLegError + c.WidenedOnInconclusive + c.WidenedOnHedge
}

// counters is the atomic backing store of Counters.
type counters struct {
	verifiedDecodes  atomic.Uint64
	consensusDecodes atomic.Uint64
	corruptShares    atomic.Uint64
	suspectMarks     atomic.Uint64
	suspectClears    atomic.Uint64
	fetchLegs        atomic.Uint64
	widened          [3]atomic.Uint64 // by cause: widenLegError, widenInconclusive, widenHedge
	fullWaveReads    atomic.Uint64
}

func (c *counters) snapshot() Counters {
	return Counters{
		VerifiedDecodes:  c.verifiedDecodes.Load(),
		ConsensusDecodes: c.consensusDecodes.Load(),
		CorruptShares:    c.corruptShares.Load(),
		SuspectMarks:     c.suspectMarks.Load(),
		SuspectClears:    c.suspectClears.Load(),

		FetchLegs:             c.fetchLegs.Load(),
		WidenedOnLegError:     c.widened[widenLegError].Load(),
		WidenedOnInconclusive: c.widened[widenInconclusive].Load(),
		WidenedOnHedge:        c.widened[widenHedge].Load(),
		FullWaveReads:         c.fullWaveReads.Load(),
	}
}

// Counters returns a snapshot of the client's Byzantine-detection counters.
func (c *Client) Counters() Counters { return c.ctr.snapshot() }

// Suspects returns the node IDs currently quarantined by this client,
// sorted by membership position. Empty means every node's shares have
// decoded cleanly lately.
func (c *Client) Suspects() []uint32 {
	idx := c.suspects.indexes()
	out := make([]uint32, 0, len(idx))
	for _, i := range idx {
		out = append(out, c.m.Nodes[i].ID)
	}
	return out
}

// decoder is the working memory of decodeShares, owned by whoever serializes
// the decodes that use it: a reader's round, one audit merge.
type decoder struct {
	ida     ida.Scratch
	val     [8]byte
	expect  [][]byte // by position: the accepted value, re-encoded
	used    []int    // the trusted positions
	sub     []int    // consensus: the k positions under trial …
	pick    []int    // … and their indexes into the position list
	corrupt []int    // the positions whose share disagreed with the accepted value
}

func (d *decoder) init(c *Client) {
	n, k := c.m.N(), c.m.Threshold()
	d.expect = ida.ShareRows(n, c.shareLen)
	d.used, d.corrupt = make([]int, 0, n), make([]int, 0, n)
	d.sub, d.pick = make([]int, k), make([]int, k)
}

// decodeShares is the single entry point for turning shares that all claim
// the same wid into a value: shares holds them unmasked by node position,
// pos lists the positions present, ascending. The read path, its consensus
// slow path and the audit merge all route through it.
//
// The rule set, in order:
//
//  1. Exactly k shares (strict==false callers only): plain unverified
//     reconstruction. There is no redundancy, so no detection is possible —
//     this is the audit merge's charging threshold, where "k nodes logged
//     it" is itself the semantic being reported.
//  2. Surplus available: a verified decode over the trusted subset
//     (suspects' shares excluded while enough trusted shares remain). A
//     clean verify over ≥ quorum shares is accepted outright: n−f
//     consistent shares contain ≥ k honest ones, and k honest shares pin
//     the true value.
//  3. Any disagreement — or a trusted set too small to prove cleanliness —
//     falls to the consensus search: every k-subset's decode is a
//     candidate, and a candidate is accepted iff ≥ quorum (k+f) of ALL
//     provided shares re-encode consistently with it. A wrong value can
//     gather at most k−1 honest supporters (k would pin it as the true
//     value) plus f corrupt ones: k+f−1 < k+f, so no coalition of ≤ f
//     Byzantine nodes can push a wrong value past the threshold. Suspects
//     vote here too — a vote is checked arithmetic, not trust.
//
// strict callers (reads) get (0, nil, errInconclusive) when no candidate
// reaches quorum support; non-strict callers (audit merge, f=0 clusters)
// additionally accept rule 1. corrupted lists the positions whose shares
// disagreed with the accepted value, ascending — it aliases d and is valid
// until d's next decode; quarantine state and counters are updated as a side
// effect.
func (o *Object) decodeShares(shares [][]byte, pos []int, strict bool, d *decoder) (v uint64, corrupted []int, err error) {
	cod := o.c.cod
	k := o.c.m.Threshold()
	q := o.c.m.Quorum() // == k + f: the consensus acceptance threshold

	if len(pos) <= k && !strict {
		if err := cod.ReconstructInto(d.val[:], shares, pos, &d.ida); err != nil {
			return 0, nil, err
		}
		return beUint(d.val[:]), nil, nil
	}

	// Either branch leaves the accepted value in d.val and its re-encode in
	// d.expect, which the vote below reuses.
	accepted := false
	if used := o.c.suspects.trusted(d.used[:0], pos, k+1); len(used) > k {
		bad, verr := cod.VerifyInto(d.val[:], shares, used, d.expect, d.corrupt[:0], &d.ida)
		if verr != nil {
			return 0, nil, verr
		}
		o.c.ctr.verifiedDecodes.Add(1)
		// A clean verify is decisive for a read only at quorum size (k+f
		// consistent shares contain ≥ k honest ones; a smaller clean set
		// could still be a fabrication of f colluders around one honest
		// share). The audit merge accepts any clean surplus — its charging
		// semantics are "what the logs pin", and the logs disagreeing is
		// the only thing that voids them.
		accepted = len(bad) == 0 && (!strict || len(used) >= q)
	}
	if !accepted {
		o.c.ctr.consensusDecodes.Add(1)
		if !o.consensusDecode(shares, pos, q, d) {
			return 0, nil, errInconclusive
		}
	}

	// Post-accept validation votes EVERY provided share — including
	// excluded suspects' — against the accepted value: mismatches are
	// corrupt (and quarantined), matches clear an existing quarantine.
	corrupted = d.corrupt[:0]
	for _, i := range pos {
		if !bytes.Equal(shares[i], d.expect[i]) {
			corrupted = append(corrupted, i)
		}
	}
	d.corrupt = corrupted
	marks, clears := o.c.suspects.vote(pos, corrupted)
	if marks > 0 {
		o.c.ctr.suspectMarks.Add(marks)
	}
	if clears > 0 {
		o.c.ctr.suspectClears.Add(clears)
	}
	if len(corrupted) > 0 {
		o.c.ctr.corruptShares.Add(uint64(len(corrupted)))
	}
	return beUint(d.val[:]), corrupted, nil
}

// consensusDecode searches for the candidate value with quorum support:
// decode every k-subset of the shares at pos, re-encode, and count the
// provided shares consistent with the result. It reports whether some
// candidate reached support ≥ q, leaving the first such in d.val and its
// re-encode in d.expect; false is inconclusive — the caller gathers more
// shares or retries. Cluster geometries keep n ≤ a handful, so the subset
// enumeration is at most C(7,5) = 21 decodes, each over 8 bytes.
func (o *Object) consensusDecode(shares [][]byte, pos []int, q int, d *decoder) bool {
	if len(pos) < len(d.pick) {
		return false
	}
	for p := range d.pick {
		d.pick[p] = p
	}
	for more := true; more; more = nextSubset(d.pick, len(pos)) {
		for r, p := range d.pick {
			d.sub[r] = pos[p]
		}
		if err := o.c.cod.ReconstructInto(d.val[:], shares, d.sub, &d.ida); err != nil {
			continue
		}
		o.c.cod.SplitInto(d.expect, d.val[:], &d.ida)
		support := 0
		for _, i := range pos {
			if bytes.Equal(shares[i], d.expect[i]) {
				support++
			}
		}
		if support >= q {
			return true
		}
	}
	return false
}

// nextSubset advances idx — an ascending r-subset of {0, …, n−1} — to its
// lexicographic successor, reporting false after the last one.
func nextSubset(idx []int, n int) bool {
	r := len(idx)
	i := r - 1
	for i >= 0 && idx[i] == n-r+i {
		i--
	}
	if i < 0 {
		return false
	}
	idx[i]++
	for j := i + 1; j < r; j++ {
		idx[j] = idx[j-1] + 1
	}
	return true
}

// beUint folds big-endian bytes into a uint64.
func beUint(data []byte) uint64 {
	var v uint64
	for _, b := range data {
		v = v<<8 | uint64(b)
	}
	return v
}
