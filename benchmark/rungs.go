package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync/atomic"
	"time"

	"auditreg"
	"auditreg/client"
	"auditreg/cluster"
	"auditreg/persist"
	"auditreg/server"
	"auditreg/store"
	"auditreg/wire"
)

// Cluster geometry of the cluster rungs: n=5, f=1, so k=3 and quorum 4.
const (
	clusterN   = 5
	clusterF   = 1
	corruptor  = 3 // node id booted with CorruptShares on cluster-byz
	nodeConns  = 2 // pooled connections of the single-node rungs
	shareConns = 1 // connections per node of the cluster rungs
)

// rung is one booted rung of the ladder: the system under test plus the
// handles the harness drives it through.
type rung interface {
	// do performs one op as caller c (reader index c). It is the only call
	// inside the timed section.
	do(c int, o op) (result, error)
	// audit runs one fresh audit of object obj, timed, and — when check is
	// set — holds it to ex.
	audit(g *gate, ex expectation, obj int, check bool) (pairs int, took time.Duration, err error)
	// verdict runs rung-wide checks that are not per object.
	verdict() error
	// counters snapshots every counter the rung's layers export; it doubles
	// as a barrier that drains pipelined frames.
	counters() (counterSet, error)
	close() error
}

func objName(i int) string { return fmt.Sprintf("obj/%04d", i) }

// ---- store-local ---------------------------------------------------------

type localRung struct {
	st    *store.Store[uint64]
	pool  *store.AuditPool[uint64]
	names []string
	snap  []bool
}

func bootLocal(sp *spec, seed uint64) (*localRung, error) {
	st, err := store.New[uint64](auditreg.KeyFromSeed(seed),
		store.WithLess[uint64](func(a, b uint64) bool { return a < b }),
		store.WithNonces[uint64](func(id uint64) auditreg.NonceSource {
			return auditreg.NewSeededNonces(seed+id, uint8(id))
		}))
	if err != nil {
		return nil, err
	}
	// One worker every 100 ms, not the defaults (4 workers, 25 ms): the
	// pool's work is per unit of time, so at the defaults it outweighed the
	// two callers on two cores and amplified every swing of the machine's
	// speed into the rung's throughput. store.pool_* measure it on its own.
	pool, err := st.NewAuditPool(store.WithPoolWorkers(1), store.WithPoolInterval(100*time.Millisecond))
	if err != nil {
		return nil, err
	}
	r := &localRung{st: st, pool: pool, names: make([]string, sp.objects), snap: make([]bool, sp.objects)}
	for i := range r.names {
		r.names[i] = objName(i)
		r.snap[i] = sp.kindOf(i) == store.Snapshot
		if _, err := st.Open(r.names[i], sp.kindOf(i)); err != nil {
			return nil, err
		}
	}
	return r, pool.Start()
}

func (r *localRung) do(c int, o op) (result, error) {
	name := r.names[o.obj]
	switch {
	case o.kind == opReport:
		r.pool.Report(name)
		return result{}, nil
	case !r.snap[o.obj] && o.kind == opWrite:
		return result{}, r.st.Write(name, o.val)
	case !r.snap[o.obj]:
		v, err := r.st.Read(name, c)
		return result{val: v}, err
	}
	obj, ok := r.st.Lookup(name)
	if !ok {
		return result{}, store.ErrNotFound
	}
	if o.kind == opWrite {
		return result{}, obj.UpdateAt(o.comp, o.val)
	}
	view, err := obj.Scan(c)
	return result{view: view}, err
}

func (r *localRung) audit(_ *gate, ex expectation, obj int, check bool) (int, time.Duration, error) {
	t0 := time.Now()
	aud, err := r.st.Audit(r.names[obj])
	took := time.Since(t0)
	if err != nil || !check {
		return aud.Len(), took, err
	}
	n, err := ex.checkAudit(obj, aud)
	return n, took, err
}

func (r *localRung) verdict() error { return r.pool.Err() }

func (r *localRung) counters() (counterSet, error) {
	return counterSet{stats: map[string]uint64{"pool-audits": r.pool.Audited()}}, nil
}

func (r *localRung) close() error {
	r.pool.Stop()
	return nil
}

// ---- servers -------------------------------------------------------------

// node is one in-process server on a loopback listener.
type node struct {
	srv  *server.Server
	cfg  server.Config
	addr string
	done chan error
}

// frameTap counts every frame and byte the servers of a traced run put on or
// take off the wire, STATS polling excluded (that is the harness's own).
type frameTap struct {
	frames, bytes atomic.Uint64
}

func (t *frameTap) tap(_ bool, frame []byte) {
	if len(frame) > 12 && wire.Verb(frame[12]) == wire.VerbStats {
		return
	}
	t.frames.Add(1)
	t.bytes.Add(uint64(len(frame)))
}

func bootNode(cfg server.Config) (*node, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // releases the data dir lock
		return nil, err
	}
	n := &node{srv: srv, cfg: cfg, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- srv.Serve(ln) }()
	return n, nil
}

// stop drains the server and waits for Serve to return, so no goroutine,
// listener or data-dir lock outlives the rung.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	return errors.Join(err, <-n.done)
}

// ---- remote-read, durable-write -------------------------------------------

type nodeRung struct {
	n    *node
	cl   *client.Client
	objs []*client.Object
	auds []*client.Auditor
}

func bootNodeRung(sp *spec, seed uint64, dir string, tap *frameTap) (*nodeRung, error) {
	cfg := server.Config{Key: auditreg.KeyFromSeed(seed)}
	if sp.durable {
		cfg.DataDir, cfg.Fsync = filepath.Join(dir, "data"), persist.SyncAlways
	}
	if tap != nil {
		cfg.FrameTap = tap.tap
	}
	n, err := bootNode(cfg)
	if err != nil {
		return nil, err
	}
	r := &nodeRung{n: n}
	if err := r.dial(sp); err != nil {
		return nil, errors.Join(err, r.close())
	}
	return r, nil
}

// dial connects the client pool and opens every object on it.
func (r *nodeRung) dial(sp *spec) error {
	cl, err := client.Dial(r.n.addr, client.WithConns(nodeConns), client.WithKey(r.n.cfg.Key))
	if err != nil {
		return err
	}
	r.cl = cl
	r.objs = make([]*client.Object, sp.objects)
	r.auds = make([]*client.Auditor, sp.objects)
	for i := range r.objs {
		if r.objs[i], err = cl.Open(objName(i), sp.kindOf(i)); err != nil {
			return err
		}
		if r.auds[i], err = r.objs[i].Auditor(); err != nil {
			return err
		}
	}
	return nil
}

func (r *nodeRung) do(c int, o op) (result, error) {
	if o.kind == opWrite {
		return result{}, r.objs[o.obj].Write(o.val)
	}
	v, err := r.objs[o.obj].Read(c)
	return result{val: v}, err
}

func (r *nodeRung) audit(_ *gate, ex expectation, obj int, check bool) (int, time.Duration, error) {
	t0 := time.Now()
	aud, err := r.auds[obj].Audit()
	took := time.Since(t0)
	if err != nil || !check {
		return aud.Len(), took, err
	}
	n, err := ex.checkAudit(obj, aud)
	return n, took, err
}

func (r *nodeRung) verdict() error { return nil }

func (r *nodeRung) counters() (counterSet, error) {
	cs := counterSet{stats: map[string]uint64{}, rtt: r.cl.RTT()}
	// One STATS per pooled connection: the pool is round robin, so this
	// also queues behind every announce still in flight.
	for i := 0; i < nodeConns; i++ {
		pairs, err := r.cl.Stats()
		if err != nil {
			return cs, err
		}
		if i == nodeConns-1 {
			cs.addStats(pairs)
		}
	}
	return cs, cs.addStages(r.n.srv)
}

func (r *nodeRung) close() error {
	var err error
	if r.cl != nil {
		err = r.cl.Close()
	}
	return errors.Join(err, r.n.stop())
}

// ---- cluster-mixed, cluster-byz -------------------------------------------

// readStats is one caller's tally of how its cluster reads resolved.
type readStats struct {
	reads, retries, stale, corrupted uint64
	blamed                           [clusterN + 1]bool // node ids named by ReadTrace.Corrupted
	_                                [40]byte           // callers do not share a cache line
}

type clusterRung struct {
	sp    *spec
	nodes []*node
	cc    *cluster.Client
	objs  []*cluster.Object
	per   []readStats

	undecided int // sub-threshold pairs the merged audits reported
}

func bootClusterRung(sp *spec, seed uint64, callers int, tap *frameTap) (*clusterRung, error) {
	r := &clusterRung{sp: sp, per: make([]readStats, callers)}
	addrs := make([]string, clusterN)
	for i := range addrs {
		// SeededMembership's key schedule: node i+1 holds KeyFromSeed(seed+i+1).
		cfg := server.Config{
			Key:           auditreg.KeyFromSeed(seed + uint64(i) + 1),
			NodeID:        uint32(i + 1),
			CorruptShares: sp.byz && i+1 == corruptor,
		}
		if tap != nil {
			cfg.FrameTap = tap.tap
		}
		n, err := bootNode(cfg)
		if err != nil {
			return nil, errors.Join(err, r.close())
		}
		r.nodes = append(r.nodes, n)
		addrs[i] = n.addr
	}
	cc, err := cluster.Dial(cluster.SeededMembership(addrs, clusterF, seed),
		cluster.WithClientOptions(func(cluster.Node) []client.Option {
			return []client.Option{client.WithConns(shareConns)}
		}))
	if err != nil {
		return nil, errors.Join(err, r.close())
	}
	r.cc = cc
	r.objs = make([]*cluster.Object, sp.objects)
	for i := range r.objs {
		if r.objs[i], err = cc.Open(objName(i)); err != nil {
			return nil, errors.Join(err, r.close())
		}
	}
	return r, nil
}

func (r *clusterRung) do(c int, o op) (result, error) {
	if o.kind == opWrite {
		return result{}, r.objs[o.obj].Write(o.val)
	}
	v, tr, err := r.objs[o.obj].ReadTraced(c)
	st := &r.per[c]
	st.reads++
	st.retries += uint64(tr.Retries)
	if tr.Stale {
		st.stale++
	}
	if len(tr.Corrupted) > 0 {
		st.corrupted++
		for _, id := range tr.Corrupted {
			st.blamed[id] = true
		}
	}
	return result{val: v}, err
}

func (r *clusterRung) audit(g *gate, ex expectation, obj int, check bool) (int, time.Duration, error) {
	t0 := time.Now()
	m, err := r.objs[obj].Audit()
	took := time.Since(t0)
	if err != nil || !check {
		return m.Report.Len(), took, err
	}
	r.undecided += len(m.Undecided)
	n, err := g.checkMerged(ex, obj, clusterN, m)
	return n, took, err
}

// verdict: the client must have blamed the planted corruptor and no one
// else, both read by read and in its quarantine set.
func (r *clusterRung) verdict() error {
	var want, blamed []uint32
	if r.sp.byz {
		want = []uint32{corruptor}
	}
	for id := uint32(1); id <= clusterN; id++ {
		for c := range r.per {
			if r.per[c].blamed[id] {
				blamed = append(blamed, id)
				break
			}
		}
	}
	return errors.Join(
		checkSuspects("nodes named by ReadTrace.Corrupted", blamed, want),
		checkSuspects("Suspects()", r.cc.Suspects(), want))
}

func (r *clusterRung) counters() (counterSet, error) {
	cs := counterSet{stats: map[string]uint64{}, cluster: r.cc.Counters()}
	for c := range r.per {
		cs.reads.reads += r.per[c].reads
		cs.reads.retries += r.per[c].retries
		cs.reads.stale += r.per[c].stale
		cs.reads.corrupted += r.per[c].corrupted
	}
	// One connection per node, so each node's STATS queues behind the
	// straggler share writes and announces still in flight to it.
	nodes, err := r.cc.NodeStats()
	if err != nil {
		return cs, err
	}
	for _, ns := range nodes {
		if ns.Err != nil {
			return cs, ns.Err
		}
		cs.addStats(ns.Resp.Pairs)
	}
	for _, n := range r.nodes {
		if err := cs.addStages(n.srv); err != nil {
			return cs, err
		}
	}
	return cs, nil
}

func (r *clusterRung) close() error {
	var err error
	if r.cc != nil {
		err = r.cc.Close()
	}
	for _, n := range r.nodes {
		err = errors.Join(err, n.stop())
	}
	return err
}

// boot brings up the rung a spec names. dir is a fresh directory for the
// durable rung's data.
func boot(sp *spec, seed uint64, callers int, dir string, tap *frameTap) (rung, error) {
	switch sp.rung {
	case rungLocal:
		return bootLocal(sp, seed)
	case rungNode:
		return bootNodeRung(sp, seed, dir, tap)
	default:
		return bootClusterRung(sp, seed, callers, tap)
	}
}
