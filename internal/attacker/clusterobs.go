package attacker

import (
	"fmt"
	"net"

	"auditreg/client"
	"auditreg/cluster"
	"auditreg/internal/ida"
	"auditreg/server"
)

// Per-node cluster observer (E18, dispersal channel). The single-node wire
// observer (wireobs.go) pins the audit channel of one auditd; this lab pins
// the distributed invariant the dispersal cluster adds on top: a curious
// observer tapping ONE node's wire — every SHARE and AUDIT frame that node
// exchanges — learns nothing about read occurrence or reader identity, even
// though that node journals a share of every write and serves a share of
// every read.
//
// The observer here is strictly stronger than the paper's curious server: it
// is handed the combining-matrix row mapping — which Vandermonde row its
// node applies, hence exactly which packed share value the trial's write
// must have produced under that node's pad — so it can locate the audited
// row for the write under test with certainty. Indistinguishability must
// survive that: the row's reader set crosses the wire under the per-audit
// wire.AuditMask stream, and the share itself sits under an independent
// per-(node, object, wid) pad, so locating the row yields masked bits only.
//
// The positive control plays the same games against the frames a leaky node
// would have sent: the captured audit rows with their masks stripped (the
// lab holds the node's store key). With the matrix-row mapping locating the
// row and the mask gone, the tracking bits are plaintext and the harness
// must flag the leak — that is the game's power proof.

// clusterObsNodes/clusterObsF fix the lab geometry: n=4, f=1 gives
// threshold k=2 and 4-byte shares — the smallest geometry where no single
// node's share reconstructs anything and a full wid fits the packed layout.
const (
	clusterObsNodes = 4
	clusterObsF     = 1
)

// clusterLab is an in-process n-node dispersal cluster with a frame tap on
// node 1 plus a cluster client that is both the victim (the dispersed
// writes and reads under test) and the auditor (the merged audit whose
// node-1 exchange is the observed window). Trials use fresh objects.
type clusterLab struct {
	m   cluster.Membership
	tap *frameTap
	cc  *cluster.Client
	cod *ida.Coder
	ctr int
}

func clusterGames(l *lab, cfg Config) ([]Distinguisher, error) {
	c := &clusterLab{tap: &frameTap{}}
	// The membership names every node's address, so the listeners come
	// first.
	addrs := make([]string, clusterObsNodes)
	lns := make([]net.Listener, clusterObsNodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		l.onClose(func() { ln.Close() })
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	c.m = cluster.SeededMembership(addrs, clusterObsF, cfg.Seed)
	for i, ln := range lns {
		scfg := server.Config{Key: c.m.Nodes[i].Key, Readers: wireReaders, NodeID: c.m.Nodes[i].ID}
		if i == 0 {
			scfg.FrameTap = c.tap.tap // the observed node
		}
		if _, _, err := l.serve(scfg, ln); err != nil {
			return nil, err
		}
	}
	var err error
	if c.cod, err = ida.New(clusterObsNodes, c.m.Threshold()); err != nil {
		return nil, err
	}
	// Single-connection pools: per-conn FIFO makes the drain below airtight
	// and keeps each trial's observation window down to the audit exchange.
	c.cc, err = cluster.Dial(c.m, cluster.WithClientOptions(func(cluster.Node) []client.Option {
		return []client.Option{client.WithConns(1)}
	}))
	if err != nil {
		return nil, err
	}
	l.onClose(func() { c.cc.Close() })
	// The positive control sees node 1's frames with the audit masks
	// stripped.
	return readGames("cluster", wireFeatures(), c.trial), nil
}

// trial plays one round: fresh dispersed object, one cluster write, the
// game's cluster reads, a drain, then — inside the observation window — one
// merged audit, of which node 1's exchange is what the tap sees.
func (l *clusterLab) trial(unmasked bool, play game, b int) ([]float64, error) {
	l.ctr++
	name := fmt.Sprintf("e18/cluster/%08d", l.ctr)
	value := 0xC1_0000_0000 + uint64(l.ctr)

	obj, err := l.cc.Open(name)
	if err != nil {
		return nil, err
	}
	if err := obj.Write(value); err != nil {
		return nil, err
	}
	if err := play(obj, b); err != nil {
		return nil, err
	}
	// Drain, identically in both branches: reader 2 never read this object,
	// so its first cluster read is an effective fetch on every node it asks
	// and its second is silent wherever the first was served. A read asks a
	// quorum and waits for all of it, and on a fresh object the positions
	// that sit out of a reader's first two rounds are 1 and 2, so the tapped
	// node (position 0) answers both; the write before is n-wide and returns
	// at quorum with up to f legs still on the wire. Each node's single
	// connection is FIFO, so a node that answered the second drain read has
	// consumed every frame sent it above.
	for i := 0; i < 2; i++ {
		if _, err := obj.Read(2); err != nil {
			return nil, err
		}
	}

	// The combining-matrix row mapping: the observer knows node 1 applies
	// Vandermonde row 0, so it computes the exact packed value node 1's
	// audit log must carry for this trial's write (wid 1) — share masked
	// under node 1's pad, wid in the high bits — and locates the audited
	// row with certainty. Everything it finds there is still masked bits.
	var data [8]byte
	for i := range data {
		data[i] = byte(value >> (56 - 8*i))
	}
	shares := l.cod.Split(data[:])
	shareLen := l.m.ShareLen()
	masked := cluster.ShareToUint(shares[0]) ^ cluster.SharePad(l.m.Secret, l.m.Nodes[0].ID, name, 1, shareLen)
	packed := cluster.Pack(1, masked, shareLen)

	l.tap.reset()
	if _, err := obj.Audit(); err != nil {
		return nil, err
	}
	// Node 1's audit rows ride the same frame format as the single-node
	// lab's, so feature extraction is shared: traffic shape plus the
	// (un)masked tracking bits of the located row.
	return wireFeaturesOf(l.tap.snapshot(), packed, unmasked, l.m.Nodes[0].Key, nil)
}
