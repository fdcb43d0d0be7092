package main

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"auditreg"
	"auditreg/client"
	"auditreg/cluster"
	"auditreg/store"
)

// target is the system one cell drives. It hides which client stack is under
// the traffic — an in-process store, one daemon behind the wire client, or a
// dispersal cluster — so that the worker loop, the verifier and the metrics
// assembly in driver.go exist once. Objects are addressed by index into the
// names open returned; every method but open and close is called from many
// goroutines at once.
type target interface {
	// open connects and creates the cell's objects. It returns their names
	// (fresh per grid cell, so a long-lived daemon can serve a whole grid)
	// and the number of reader principals each one has.
	open(cfg cellConfig) (names []string, readers int, err error)
	write(obj int, v uint64) error
	read(obj, reader int) (uint64, error)
	// lookup fetches the audit pool's latest published report: the cheap
	// read-side audit path, as opposed to the fresh audit below.
	lookup(obj int) error
	// audit runs a fresh, complete audit of one object after the traffic
	// has quiesced: the ground truth the verifier compares the driver's
	// observations against.
	audit(obj int) (auditView, error)
	// counters reports the target's own tallies as alternating metric key,
	// value pairs.
	counters() ([]any, error)
	close() error
}

// auditView is one object's fresh audit, reduced to what the verifier rules
// on.
type auditView struct {
	// charged is the audit's verdict: reader r learned value v.
	charged []auditreg.Entry[uint64]
	// undecided lists fetch evidence below the knowledge threshold (logged
	// by 0 < nodes < k): reported, never charged. Single-store audits have
	// none.
	undecided []cluster.Undecided
	// nodes is how many audit logs the view merges (1 for a single store);
	// corrupted the nodes whose logged shares contradicted the merge.
	nodes     int
	corrupted []uint32
	// dispersed marks a merged audit over share logs, which differs from a
	// single store's audit in two ways the verifier must know. A read that
	// beat the first write fetched nothing dispersed and is not charged,
	// so observations of the initial value 0 are not expected in it. And a
	// dispersed read asks a quorum of nodes — all of them once it widens — so
	// a reader that overlapped a write or a crash may hold k shares of a
	// neighbouring write id too: the
	// merge correctly charges what the reader could reconstruct, not just
	// what the client's selection rule returned.
	dispersed bool
}

// kinds are the object kinds a store hosts, assigned round-robin; the wire
// protocol serves the first two (snapshots stay local).
var kinds = []store.Kind{store.Register, store.MaxRegister, store.Snapshot}

// localTarget is an in-process store.Store with a running audit pool: the
// E12 series.
type localTarget struct {
	st    *store.Store[uint64]
	pool  *store.AuditPool[uint64]
	names []string
	objs  []*store.Object[uint64]
}

func (t *localTarget) open(cfg cellConfig) ([]string, int, error) {
	m := cfg.readerCount()
	st, err := store.New[uint64](auditreg.KeyFromSeed(cfg.seed),
		store.WithReaders[uint64](m),
		store.WithLess[uint64](func(a, b uint64) bool { return a < b }),
		store.WithComponents[uint64](cfg.components),
		store.WithNonces[uint64](func(id uint64) auditreg.NonceSource {
			return auditreg.NewSeededNonces(cfg.seed+id, uint8(id))
		}),
	)
	if err != nil {
		return nil, 0, err
	}
	t.st = st
	t.names = make([]string, cfg.objects)
	t.objs = make([]*store.Object[uint64], cfg.objects)
	for i := range t.names {
		kind := kinds[i%len(kinds)]
		t.names[i] = fmt.Sprintf("%v-%05d", kind, i)
		if t.objs[i], err = st.Open(t.names[i], kind); err != nil {
			return nil, 0, err
		}
	}
	t.pool, err = st.NewAuditPool(store.WithPoolWorkers(cfg.poolWorkers), store.WithPoolInterval(cfg.poolInterval))
	if err != nil {
		return nil, 0, err
	}
	return t.names, m, t.pool.Start()
}

func (t *localTarget) write(obj int, v uint64) error {
	o := t.objs[obj]
	if o.Kind() == store.Snapshot {
		return o.UpdateAt(int(v%uint64(o.Components())), v)
	}
	return o.Write(v)
}

// read reports a snapshot scan as a read of 0: the driver's ledger holds one
// uint64 per read, so a snapshot is verified two-sidedly on who scanned, not
// on what they saw.
func (t *localTarget) read(obj, reader int) (uint64, error) {
	o := t.objs[obj]
	if o.Kind() == store.Snapshot {
		_, err := o.Scan(reader)
		return 0, err
	}
	return o.Read(reader)
}

func (t *localTarget) lookup(obj int) error {
	t.pool.Report(t.names[obj]) // lock-free latest report; absent early on
	return nil
}

// audit hands the verifier the object's audit: one AuditObject advances the
// object's one fold — the one the pool swept throughout the cell — past
// everything the cell did. The pool's sweeps must have raised no error. That
// the incremental fold equals a from-scratch one is the store's own test
// (TestSharedFoldUnderConcurrentAudits).
func (t *localTarget) audit(obj int) (auditView, error) {
	if err := t.pool.Err(); err != nil {
		return auditView{}, err
	}
	rep, err := t.pool.AuditObject(t.names[obj])
	if err != nil {
		return auditView{}, err
	}
	charged := rep.Report.Entries()
	if len(rep.Views) > 0 { // a snapshot: one (scanner, 0) pair per audited scan, as read reports them
		charged = make([]auditreg.Entry[uint64], len(rep.Views))
		for j, e := range rep.Views {
			charged[j].Reader = e.Reader
		}
	}
	return auditView{charged: charged, nodes: 1}, nil
}

func (t *localTarget) counters() ([]any, error) {
	return []any{"pool-audits", t.pool.Audited(), "pool-sweeps", t.pool.Sweeps()}, nil
}

func (t *localTarget) close() error {
	if t.pool != nil {
		t.pool.Stop()
	}
	return nil
}

// nodeTarget is one auditd behind the wire client: a daemon somebody else
// runs (-remote, E13) or the single member of a fleet (-durable, E14/E16).
// Reads flow through the READ-FETCH verb, lookups hit the server's
// pool, and audit is a fresh audit over the wire, unmasked with the store
// key derived from the shared -seed.
type nodeTarget struct {
	addr  string
	conns int
	tag   string // object-name prefix, one per series

	cl     *client.Client
	objs   []*client.Object
	auds   []*client.Auditor
	before map[string]uint64
}

func (t *nodeTarget) open(cfg cellConfig) ([]string, int, error) {
	cl, err := client.Dial(t.addr,
		client.WithKey(auditreg.KeyFromSeed(cfg.seed)),
		client.WithConns(t.conns))
	if err != nil {
		return nil, 0, err
	}
	t.cl = cl
	names := make([]string, cfg.objects)
	t.objs = make([]*client.Object, cfg.objects)
	t.auds = make([]*client.Auditor, cfg.objects)
	for i := range names {
		kind := kinds[i%2]
		names[i] = fmt.Sprintf("%s/o%d-g%d/%v-%05d", t.tag, cfg.objects, cfg.goroutines, kind, i)
		if t.objs[i], err = cl.Open(names[i], kind); err != nil {
			return nil, 0, err
		}
		if t.auds[i], err = t.objs[i].Auditor(); err != nil {
			return nil, 0, err
		}
	}
	if t.before, err = t.stats(); err != nil {
		return nil, 0, err
	}
	return names, t.objs[0].Readers(), nil
}

func (t *nodeTarget) write(obj int, v uint64) error        { return t.objs[obj].Write(v) }
func (t *nodeTarget) read(obj, reader int) (uint64, error) { return t.objs[obj].Read(reader) }

func (t *nodeTarget) lookup(obj int) error {
	_, err := t.auds[obj].Latest()
	return err
}

func (t *nodeTarget) audit(obj int) (auditView, error) {
	rep, err := t.auds[obj].Audit()
	if err != nil {
		return auditView{}, err
	}
	return auditView{charged: rep.Report.Entries(), nodes: 1}, nil
}

// stats snapshots the server counters into a map.
func (t *nodeTarget) stats() (map[string]uint64, error) {
	pairs, err := t.cl.Stats()
	if err != nil {
		return nil, err
	}
	m := make(map[string]uint64, len(pairs))
	for _, p := range pairs {
		m[p.Name] = p.Value
	}
	return m, nil
}

// counters reports what the cell added to the daemon's own counters.
func (t *nodeTarget) counters() ([]any, error) {
	after, err := t.stats()
	if err != nil {
		return nil, err
	}
	// A long-lived daemon serves a whole grid, so counters are reported as
	// growth since open — unless the daemon rebooted mid-cell (its uptime
	// went backwards), in which case they count from that boot.
	if after["uptime-ms"] < t.before["uptime-ms"] {
		t.before = nil
	}
	// Records-per-fsync mass beyond two records (every histogram bucket
	// above le-2), straight from the server's group-commit histogram: the
	// batching claim as a counter, not an inference.
	var bigBatchSyncs uint64
	for name, v := range after {
		if strings.HasPrefix(name, "wal-sync-batch-") &&
			name != "wal-sync-batch-le-1" && name != "wal-sync-batch-le-2" {
			bigBatchSyncs += v - t.before[name]
		}
	}
	out := []any{"conns", t.conns, "srv-shards", after["shards"], "srv-wal-sync-batch-gt-2", bigBatchSyncs}
	for _, name := range []string{
		"reads-fetched", "reads-silent", "frames-in", "frames-out",
		"conn-flushes", "conn-flushed-frames",
		"wal-records", "wal-syncs", "shard-enqueues", "shard-sheds",
	} {
		out = append(out, "srv-"+name, after[name]-t.before[name])
	}
	return out, nil
}

func (t *nodeTarget) close() error {
	if t.cl == nil {
		return nil
	}
	return t.cl.Close()
}

// clusterTarget is a dispersal cluster behind cluster.Client (-cluster E19,
// -chaos E20): every write is split into per-node masked IDA shares, every
// read asks a quorum of n−f nodes and the other f only on evidence, and audit
// is the k-agreement merge of all n nodes' logs.
type clusterTarget struct {
	mem   cluster.Membership
	conns int
	tag   string          // object-name prefix, one per series
	extra []client.Option // per-node pool options: the chaos fabric's dialer and request timeout
	// byzantine is the node the fault plan turns Byzantine (0: none). Any
	// other node named in a ReadTrace.Corrupted is an honest node
	// mislabeled, which fails the cell.
	byzantine uint32

	cc    *cluster.Client
	names []string
	objs  []*cluster.Object

	readRounds, readRetries, staleReads, failedNodeReads, corruptedReads atomic.Uint64
	mislabeled                                                           atomic.Pointer[string]
}

func (t *clusterTarget) open(cfg cellConfig) ([]string, int, error) {
	cc, err := cluster.Dial(t.mem, cluster.WithClientOptions(func(cluster.Node) []client.Option {
		return append([]client.Option{
			client.WithConns(t.conns),
			client.WithDialTimeout(time.Second),
		}, t.extra...)
	}))
	if err != nil {
		return nil, 0, err
	}
	t.cc = cc
	t.names = make([]string, cfg.objects)
	t.objs = make([]*cluster.Object, cfg.objects)
	for i := range t.names {
		t.names[i] = fmt.Sprintf("%s/n%d-f%d/o%d-g%d/obj-%05d", t.tag, t.mem.N(), t.mem.F, cfg.objects, cfg.goroutines, i)
		if t.objs[i], err = cc.Open(t.names[i]); err != nil {
			return nil, 0, err
		}
	}
	return t.names, t.objs[0].Readers(), nil
}

func (t *clusterTarget) write(obj int, v uint64) error { return t.objs[obj].Write(v) }

func (t *clusterTarget) read(obj, reader int) (uint64, error) {
	v, trace, err := t.objs[obj].ReadTraced(reader)
	t.readRounds.Add(uint64(1 + trace.Retries)) // failed or not: its legs are in FetchLegs
	if err != nil {
		return 0, err
	}
	t.readRetries.Add(uint64(trace.Retries))
	if trace.Stale {
		t.staleReads.Add(1)
	}
	if len(trace.Failed) > 0 {
		t.failedNodeReads.Add(1)
	}
	if len(trace.Corrupted) > 0 {
		t.corruptedReads.Add(1)
	}
	for _, id := range trace.Corrupted {
		if id != t.byzantine {
			msg := fmt.Sprintf("honest node %d flagged corrupt on %s", id, t.names[obj])
			t.mislabeled.CompareAndSwap(nil, &msg)
		}
	}
	return v, nil
}

// lookup is never reached: a dispersal cluster has no pool report to look
// up, so cluster cells run with an empty audit band (see mode.cell).
func (t *clusterTarget) lookup(int) error {
	return errors.New("cluster target has no audit-report lookup")
}

// check reports the first honest node a read trace mislabeled as corrupt.
func (t *clusterTarget) check() error {
	if p := t.mislabeled.Load(); p != nil {
		return errors.New(*p)
	}
	return nil
}

func (t *clusterTarget) audit(obj int) (auditView, error) {
	n, o := t.mem.N(), t.objs[obj]
	// A restarted node may still be replaying its WAL: give the full merge
	// a moment, but never accept less than all n logs — exactness relative
	// to fewer is weaker than what the cell claims.
	var merged cluster.Merged
	var err error
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		merged, err = o.Audit()
		if err == nil && merged.Nodes == n {
			break
		}
		if time.Now().After(deadline) {
			return auditView{}, fmt.Errorf("full %d-node merge unavailable: nodes=%d err=%v", n, merged.Nodes, err)
		}
	}
	// Post-fault liveness: the healed cluster must still accept a write and
	// read it back exactly — the newest state is not stranded on any dead
	// node's wid horizon.
	sentinel := 0x5E47_0000_0000 | uint64(obj)
	if err := o.Write(sentinel); err != nil {
		return auditView{}, fmt.Errorf("post-fault write: %w", err)
	}
	if v, err := t.read(obj, 0); err != nil || v != sentinel {
		return auditView{}, fmt.Errorf("post-fault read = %#x, %v; want %#x", v, err, sentinel)
	}
	return auditView{
		charged:   merged.Report.Entries(),
		undecided: merged.Undecided,
		nodes:     merged.Nodes,
		corrupted: merged.Corrupted,
		dispersed: true,
	}, nil
}

func (t *clusterTarget) counters() ([]any, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	ctr := t.cc.Counters()
	return []any{
		"read-retries", t.readRetries.Load(),
		"stale-reads", t.staleReads.Load(),
		"failed-node-reads", t.failedNodeReads.Load(),
		"corrupted-reads", t.corruptedReads.Load(),
		"verified-decodes", ctr.VerifiedDecodes,
		"consensus-decodes", ctr.ConsensusDecodes,
		"corrupt-shares", ctr.CorruptShares,
		"suspect-marks", ctr.SuspectMarks,
		"suspect-clears", ctr.SuspectClears,
		// What a read round costs in share fetches: quorum = n−f when nothing
		// is wrong, one round in probeEvery n while a node is left out for
		// cause, n for a round that widened.
		"fetch-legs/read", float64(ctr.FetchLegs) / float64(max(t.readRounds.Load(), 1)),
		"widened-reads", ctr.WidenedReads(),
		"widened-on-leg-error", ctr.WidenedOnLegError,
		"widened-on-inconclusive", ctr.WidenedOnInconclusive,
		"widened-on-hedge", ctr.WidenedOnHedge,
		"full-wave-reads", ctr.FullWaveReads,
		"nodes", t.mem.N(),
		"faults", t.mem.F,
		"conns", t.conns,
	}, nil
}

func (t *clusterTarget) close() error {
	if t.cc == nil {
		return nil
	}
	return t.cc.Close()
}
