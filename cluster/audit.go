package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"auditreg"
	"auditreg/client"
	"auditreg/internal/core"
	"auditreg/internal/ida"
	"auditreg/wire"
)

// Undecided is one (reader, wid) pair the merged audit saw on fewer than k
// nodes: the reader began fetching that write's shares but — as far as the
// merged logs show — never obtained enough to know its value. It is
// reported, not charged: charging it would overstate what the reader can
// know, and the exactness claim cuts both ways.
type Undecided struct {
	Reader int
	Wid    uint64
	Nodes  int // how many nodes logged the pair (0 < Nodes < k)
}

// Merged is the cluster-wide audit of one dispersed object: the union of n
// per-node audit reports, collapsed by the knowledge threshold.
type Merged struct {
	Object string
	// Report charges (reader, value) exactly when ≥ k distinct nodes'
	// audit logs record the reader fetching that write's share — the
	// information-theoretic threshold at which the reader can reconstruct
	// the value. Values are the reconstructed cleartext, recovered from the
	// very shares the logs recorded.
	Report auditreg.Report[uint64]
	// Nodes is how many node audits the merge covers. Exactness holds
	// relative to these: with all n merged, Report is the exact observed
	// set; with crashed nodes excluded (Nodes < n), a reader that used a
	// crashed node's share could fall at most one node short of k, and
	// surfaces in Undecided instead.
	Nodes int
	// Undecided lists sub-threshold (reader, wid) pairs — in-flight reads,
	// or reads whose k-th logging node has not been merged. A pair whose
	// logged shares disagree so badly that no value reaches quorum support
	// is also reported here (Nodes then counts the loggers): the logs prove
	// the reader fetched, but pin no value to charge.
	Undecided []Undecided
	// Corrupted lists the node ids whose logged shares disagreed with a
	// value the merge accepted — a journal corrupted at rest, or a node
	// whose share pipeline is lying consistently enough to journal what it
	// serves. Sorted, deduplicated.
	Corrupted []uint32
}

// Audit merges an audit of every reachable node into the exact cluster-wide
// observed set. It requires the membership to carry every node's store key
// (per-node audit rows cross the wire masked under them) and at least a
// quorum of nodes to answer.
//
// The merge rule: each node's report yields (reader, packed) entries;
// unpacking gives (reader, wid) with that node's pad-masked share of wid in
// the low bits. The auditor — holding the cluster secret — unmasks each
// share, and for every (reader, wid) logged by ≥ k distinct nodes emits
// (reader, v_wid), reconstructing v_wid from k of the logged shares
// themselves. No node ever saw a value or an unmasked reader set; the
// auditor recovers both from what the nodes' ordinary audit machinery
// already journals.
//
// The object tails: it keeps one client.Auditor per node — each with the
// paper's cursor into its node's history — and the table of pairs merged so
// far, so a call folds in only the entries its nodes report as new, unmasks
// each share once, decides again only the pairs that gained a logger, and
// costs what happened since the last call. The result is what a from-scratch
// merge of the same logs gives: the table covers exactly the logs of the
// nodes that answered, at the boot they answered from, and is rebuilt from
// the per-node sets whenever that changes.
func (o *Object) Audit() (Merged, error) {
	o.amu.Lock()
	defer o.amu.Unlock()
	a, n := &o.aud, o.c.m.N()
	if a.auds == nil {
		a.auds, a.reports, a.epochs, a.covered = make([]*client.Auditor, n), make([]auditreg.Report[uint64], n), make([]uint64, n), make([]uint64, n)
		a.folded, a.blame, a.share, a.pos = make([]int, n), make([]int, n), ida.ShareRows(n, o.c.shareLen), make([]int, 0, n)
		a.dec.init(o.c)
	}

	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) { errs <- o.auditNode(i) }(i)
	}
	merged := Merged{Object: o.name}
	var firstErr error
	for range a.auds {
		if err := <-errs; err == nil {
			merged.Nodes++
		} else if firstErr == nil {
			firstErr = err
		}
	}
	if merged.Nodes < o.c.m.Quorum() {
		return Merged{}, fmt.Errorf("cluster: audit %q merged %d of %d nodes, need %d: %w", o.name, merged.Nodes, n, o.c.m.Quorum(), firstErr)
	}

	// A node that stopped or started answering, or answers from another
	// boot, voids what the table folded: start over from the per-node sets.
	if !slices.Equal(a.epochs, a.covered) || a.pairs == nil {
		copy(a.covered, a.epochs)
		clear(a.folded)
		clear(a.blame)
		a.pairs, a.open, a.charged = make(map[pair]*logged), make(map[pair]*logged), core.NewAuditSet[uint64]()
		a.dirty, a.undecided, a.retracted = a.dirty[:0], nil, false
	}
	for i, rep := range a.reports {
		if a.epochs[i] != 0 {
			o.fold(i, rep.From(a.folded[i]))
			a.folded[i] = rep.Len()
		}
	}
	for _, lg := range a.dirty {
		if err := o.decide(lg); err != nil {
			a.pairs = nil // half decided: the next call starts over
			return Merged{}, fmt.Errorf("cluster: audit %q: reconstruct wid %d from logged shares: %w", o.name, lg.wid, err)
		}
	}
	a.dirty = a.dirty[:0]

	if a.retracted {
		// A surplus logger changed or voided a value already charged; the
		// charged set only grows, so rebuild it from the table.
		a.charged, a.retracted = core.NewAuditSet[uint64](), false
		for _, lg := range a.pairs {
			if lg.charged {
				a.charged.Add(1<<uint(lg.reader), lg.value)
			}
		}
	}
	if a.undecided == nil && len(a.open) > 0 {
		for _, lg := range a.open {
			a.undecided = append(a.undecided, Undecided{Reader: lg.reader, Wid: lg.wid, Nodes: len(lg.by)})
		}
		slices.SortFunc(a.undecided, func(x, y Undecided) int {
			return cmp.Or(cmp.Compare(x.Reader, y.Reader), cmp.Compare(x.Wid, y.Wid))
		})
	}
	merged.Report, merged.Undecided = a.charged.View(), a.undecided
	for i, pairs := range a.blame {
		if pairs > 0 {
			merged.Corrupted = append(merged.Corrupted, o.c.m.Nodes[i].ID)
		}
	}
	return merged, nil
}

// pair is what the merged audit decides: did reader obtain write wid.
type pair struct {
	reader int
	wid    uint64
}

// logged is one pair's row of the merge table: who logged it, and what the
// last decode of those shares made of it.
type logged struct {
	pair
	by      []loggedShare // ascending position
	dirty   bool          // gained a logger since it was last decided
	charged bool          // ≥ k loggers and a value their shares pin: Report has (reader, value)
	value   uint64
	blamed  []int // positions whose share disagreed with value
}

// loggedShare is one node's share of a pair's write, unmasked.
type loggedShare struct {
	pos   int
	share uint64
}

// auditState is what Audit keeps between calls, guarded by Object.amu. The
// by-position slices are indexed like the membership.
type auditState struct {
	auds    []*client.Auditor         // nil until the node's share object opened
	reports []auditreg.Report[uint64] // this call's per-node cumulative reports
	epochs  []uint64                  // this call: the boot each node answered from (64 random bits), 0 if it did not
	covered []uint64                  // epochs, as of the logs the table folded
	folded  []int                     // entries of each node's report already in the table

	pairs     map[pair]*logged
	open      map[pair]*logged      // the pairs not charged: Undecided
	dirty     []*logged             // to decide before the call returns
	charged   core.AuditSet[uint64] // Report: every charged (reader, value), once
	retracted bool                  // charged holds a pair no longer charged
	undecided []Undecided           // open, sorted; nil when open changed
	blame     []int                 // how many pairs blame each position

	share [][]byte // decode scratch: a pair's shares by position …
	pos   []int    // … and the positions present
	dec   decoder
}

// auditNode runs node i's audit through its tailing handle, leaving the
// cumulative report and the boot it came from in the state.
func (o *Object) auditNode(i int) error {
	a := &o.aud
	a.epochs[i] = 0
	obj, err := o.node(i)
	if err != nil {
		return err
	}
	if a.auds[i] == nil {
		if a.auds[i], err = obj.Auditor(); err != nil {
			return err
		}
	}
	rep, err := a.auds[i].Audit()
	if err != nil {
		return err
	}
	a.reports[i], a.epochs[i] = rep.Report, a.auds[i].Epoch()
	return nil
}

// fold enters node i's new log entries into the table. Entries of one write
// arrive together (a node's report lists a row's readers in a run), so the
// share pad is derived once per (node, wid), not once per pair.
func (o *Object) fold(i int, entries []auditreg.Entry[uint64]) {
	a, nodeID := &o.aud, o.c.m.Nodes[i].ID
	var padWid, pad uint64
	for _, e := range entries {
		wid, masked := Unpack(e.Value, o.c.shareLen)
		if wid == 0 {
			// The initial packed value: the reader fetched before any
			// write reached this node. Nothing to reconstruct and
			// nothing learned — the initial value is public.
			continue
		}
		if wid != padWid {
			padWid, pad = wid, SharePad(o.c.m.Secret, nodeID, o.name, wid, o.c.shareLen)
		}
		p := pair{reader: e.Reader, wid: wid}
		lg := a.pairs[p]
		if lg == nil {
			lg = &logged{pair: p}
			a.pairs[p] = lg
		}
		at, found := slices.BinarySearchFunc(lg.by, i, func(ls loggedShare, pos int) int { return cmp.Compare(ls.pos, pos) })
		if !found {
			lg.by = slices.Insert(lg.by, at, loggedShare{pos: i})
		}
		lg.by[at].share = masked ^ pad
		if !lg.dirty {
			lg.dirty, a.dirty = true, append(a.dirty, lg)
		}
	}
}

// decide brings one pair's verdict up to date with its loggers and swaps
// its old contribution to the merged result for the new one.
func (o *Object) decide(lg *logged) error {
	a := &o.aud
	a.pos = a.pos[:0]
	for _, ls := range lg.by {
		a.pos = append(a.pos, ls.pos)
		uintToShare(a.share[ls.pos], ls.share)
	}
	var charged bool
	var value uint64
	var blamed []int
	if len(a.pos) >= o.c.m.Threshold() {
		// Non-strict decode: exactly k logged shares ARE the charging
		// semantics (k loggers → the reader could know), and with surplus
		// the decode is verified — a corrupt journal entry cannot shift the
		// charged value, only surface in Corrupted (or, if no value reaches
		// quorum support, demote the pair to Undecided).
		v, corrupted, err := o.decodeShares(a.share, a.pos, false, &a.dec)
		switch {
		case err == nil:
			charged, value, blamed = true, v, corrupted
		case !errors.Is(err, errInconclusive):
			return err
		}
	}
	for _, i := range lg.blamed {
		a.blame[i]--
	}
	lg.blamed = append(lg.blamed[:0], blamed...)
	for _, i := range lg.blamed {
		a.blame[i]++
	}
	if lg.charged && (!charged || value != lg.value) {
		a.retracted = true
	}
	_, wasOpen := a.open[lg.pair]
	if charged {
		a.charged.Add(1<<uint(lg.reader), value)
		delete(a.open, lg.pair)
	} else {
		a.open[lg.pair] = lg
	}
	if wasOpen || !charged {
		a.undecided = nil // open, or a logger count in it, changed
	}
	lg.dirty, lg.charged, lg.value = false, charged, value
	return nil
}

// NodeStat is one node's STATS snapshot, as gathered by NodeStats.
type NodeStat struct {
	Node uint32
	Addr string
	Err  error // non-nil when the node did not answer; Resp is then zero
	Resp wire.StatsResp
}

// NodeStats fetches one STATS snapshot per node — the raw material of
// cmd/auditctl's cluster health view. The slice is indexed like the
// membership; a node that did not answer carries its error. The call itself
// fails only when NO node answered.
func (c *Client) NodeStats() ([]NodeStat, error) {
	n := c.m.N()
	out := make([]NodeStat, n)
	ch := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { ch <- i }()
			out[i] = NodeStat{Node: c.m.Nodes[i].ID, Addr: c.m.Nodes[i].Addr}
			cl := c.clients[i]
			if cl == nil {
				out[i].Err = errNotDialed
				return
			}
			out[i].Resp, out[i].Err = cl.StatsInfo()
		}(i)
	}
	alive := 0
	for i := 0; i < n; i++ {
		<-ch
	}
	for i := range out {
		if out[i].Err == nil {
			alive++
		}
	}
	if alive == 0 {
		return out, fmt.Errorf("cluster: no node answered STATS: %w", out[0].Err)
	}
	return out, nil
}

// errNotDialed marks a node whose pool never connected.
var errNotDialed = errors.New("cluster: node was not dialable at cluster dial time")
