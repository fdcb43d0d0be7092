package cluster

import (
	"errors"
	"fmt"
	"sort"

	"auditreg"
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

// Audit merges a fresh audit from every reachable node into the exact
// cluster-wide observed set. It requires the membership to carry every
// node's store key (per-node audit rows cross the wire masked under them)
// and at least a quorum of nodes to answer.
//
// The merge rule: each node's report yields (reader, packed) entries;
// unpacking gives (reader, wid) with that node's pad-masked share of wid in
// the low bits. The auditor — holding the cluster secret — unmasks each
// share, and for every (reader, wid) logged by ≥ k distinct nodes emits
// (reader, v_wid), reconstructing v_wid from k of the logged shares
// themselves. No node ever saw a value or an unmasked reader set; the
// auditor recovers both from what the nodes' ordinary audit machinery
// already journals.
func (o *Object) Audit() (Merged, error) {
	type nodeAudit struct {
		i       int
		entries []auditreg.Entry[uint64]
		err     error
	}
	n := o.c.m.N()
	ch := make(chan nodeAudit, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			obj, err := o.node(i)
			if err != nil {
				ch <- nodeAudit{i: i, err: err}
				return
			}
			aud, err := obj.Auditor()
			if err != nil {
				ch <- nodeAudit{i: i, err: err}
				return
			}
			rep, err := aud.Audit()
			if err != nil {
				ch <- nodeAudit{i: i, err: err}
				return
			}
			ch <- nodeAudit{i: i, entries: rep.Report.Entries()}
		}(i)
	}

	// Gather by position first: the merge then walks the nodes in ascending
	// order, so every pair's position list comes out ascending.
	merged := Merged{Object: o.name}
	byNode := make([][]auditreg.Entry[uint64], n)
	answered := make([]bool, n)
	var firstErr error
	for range byNode {
		na := <-ch
		if na.err != nil {
			if firstErr == nil {
				firstErr = na.err
			}
			continue
		}
		merged.Nodes++
		byNode[na.i], answered[na.i] = na.entries, true
	}
	if merged.Nodes < o.c.m.Quorum() {
		return Merged{}, fmt.Errorf("cluster: audit %q merged %d of %d nodes, need %d: %w", o.name, merged.Nodes, n, o.c.m.Quorum(), firstErr)
	}

	type pair struct {
		reader int
		wid    uint64
	}
	type logged struct {
		share [][]byte // by position: the unmasked share that node logged
		pos   []int    // the positions that logged the pair
	}
	pairs := make(map[pair]*logged)
	for i, entries := range byNode {
		if !answered[i] {
			continue
		}
		nodeID := o.c.m.Nodes[i].ID
		for _, e := range entries {
			wid, masked := Unpack(e.Value, o.c.shareLen)
			if wid == 0 {
				// The initial packed value: the reader fetched before any
				// write reached this node. Nothing to reconstruct and
				// nothing learned — the initial value is public.
				continue
			}
			p := pair{reader: e.Reader, wid: wid}
			lg := pairs[p]
			if lg == nil {
				lg = &logged{share: ida.ShareRows(n, o.c.shareLen)}
				pairs[p] = lg
			}
			uintToShare(lg.share[i], masked^SharePad(o.c.m.Secret, nodeID, o.name, wid, o.c.shareLen))
			if len(lg.pos) == 0 || lg.pos[len(lg.pos)-1] != i {
				lg.pos = append(lg.pos, i)
			}
		}
	}

	k := o.c.m.Threshold()
	var dec decoder
	dec.init(o.c)
	badNodes := make(map[uint32]bool)
	var entries []auditreg.Entry[uint64]
	for p, lg := range pairs {
		if len(lg.pos) < k {
			merged.Undecided = append(merged.Undecided, Undecided{Reader: p.reader, Wid: p.wid, Nodes: len(lg.pos)})
			continue
		}
		// Non-strict decode: exactly k logged shares ARE the charging
		// semantics (k loggers → the reader could know), and with surplus
		// the decode is verified — a corrupt journal entry cannot shift the
		// charged value, only surface in Corrupted (or, if no value reaches
		// quorum support, demote the pair to Undecided).
		v, corrupted, err := o.decodeShares(lg.share, lg.pos, false, &dec)
		if errors.Is(err, errInconclusive) {
			merged.Undecided = append(merged.Undecided, Undecided{Reader: p.reader, Wid: p.wid, Nodes: len(lg.pos)})
			continue
		}
		if err != nil {
			return Merged{}, fmt.Errorf("cluster: audit %q: reconstruct wid %d from logged shares: %w", o.name, p.wid, err)
		}
		for _, i := range corrupted {
			badNodes[o.c.m.Nodes[i].ID] = true
		}
		entries = append(entries, auditreg.Entry[uint64]{Reader: p.reader, Value: v})
	}
	for id := range badNodes {
		merged.Corrupted = append(merged.Corrupted, id)
	}
	sort.Slice(merged.Corrupted, func(a, b int) bool { return merged.Corrupted[a] < merged.Corrupted[b] })
	sort.Slice(merged.Undecided, func(a, b int) bool {
		ua, ub := merged.Undecided[a], merged.Undecided[b]
		if ua.Reader != ub.Reader {
			return ua.Reader < ub.Reader
		}
		return ua.Wid < ub.Wid
	})
	merged.Report = auditreg.NewReport(entries...)
	return merged, nil
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
