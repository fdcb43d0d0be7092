package cluster_test

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"auditreg/cluster"
	"auditreg/server"
)

// These tests pin the read path's wave policy over the netsim fabric: a read
// asks a quorum of n−f nodes, and the f that sat out only on evidence — a
// failed leg, an inconclusive quorum, the hedge delay. What each round did is
// read off the client's own counters (Counters.FetchLegs, WidenedOn*,
// FullWaveReads) and the nodes' STATS.

// openWritten dials fc as "principal", opens name and writes v to it, waiting
// until the write has landed on every node.
func openWritten(t *testing.T, fc *fabCluster, reqTimeout time.Duration, name string, v uint64) (*cluster.Client, *cluster.Object) {
	t.Helper()
	cc := fc.dial(t, reqTimeout)
	obj, err := cc.Open(name)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := obj.Write(v); err != nil {
		t.Fatalf("Write: %v", err)
	}
	settle(t, cc, 1)
	return cc, obj
}

// TestQuietReadsAskAQuorum: R reads with nothing wrong cost exactly R·(n−f)
// share fetches — no widening, no probe — the position that sits out moves
// one a read, so every node serves its n−f reads in n, and a reader working
// two objects in turn unmasks each under its own pads.
func TestQuietReadsAskAQuorum(t *testing.T) {
	const n, f, reads = 5, 1, 40
	fc := startFabric(t, n, f, 341, nil)
	cc, a := openWritten(t, fc, 0, "a", 0xA1)
	b, err := cc.Open("b")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < reads; i++ {
		if i == reads/2 { // both objects' pads move on, not in step
			if err := b.Write(0xB2); err != nil {
				t.Fatalf("Write: %v", err)
			}
		}
		wantB := uint64(0)
		if i >= reads/2 {
			wantB = 0xB2
		}
		if v, err := a.Read(0); err != nil || v != 0xA1 {
			t.Fatalf("read #%d of a = %#x, %v", i, v, err)
		}
		if v, err := b.Read(0); err != nil || v != wantB {
			t.Fatalf("read #%d of b = %#x, %v; want %#x", i, v, err, wantB)
		}
	}
	q := uint64(fc.m.Quorum())
	c := cc.Counters()
	if c.WidenedOnHedge > 0 {
		t.Logf("%d rounds stalled past the hedge delay on this machine and widened", c.WidenedOnHedge)
	}
	if c.WidenedOnLegError != 0 || c.WidenedOnInconclusive != 0 || c.FullWaveReads != 0 || c.FetchLegs != 2*reads*q+f*c.WidenedOnHedge {
		t.Fatalf("%d quiet reads: %+v; want %d fetch legs and nothing widened", 2*reads, c, 2*reads*q)
	}
	if s := cc.Suspects(); len(s) != 0 {
		t.Fatalf("suspects after quiet reads: %v", s)
	}
	stats, err := cc.NodeStats()
	if err != nil {
		t.Fatalf("NodeStats: %v", err)
	}
	for _, ns := range stats {
		if _, served := shareLegs(ns); served < 2*reads*q/n-1 {
			t.Errorf("node %d served %d of %d reads, want at least %d: the turn to sit out does not rotate", ns.Node, served, 2*reads, 2*reads*q/n-1)
		}
	}
}

// TestFailedLegWidensAtOnce: a first-wave node whose connection dies with the
// fetch on it makes the round widen on that error — not after the hedge delay
// — and decide with the node counted against f. From then on the dead
// connection sits out and reads cost a quorum again.
func TestFailedLegWidensAtOnce(t *testing.T) {
	const victim = 2
	fc := startFabric(t, 5, 1, 342, nil)
	cc, obj := openWritten(t, fc, 0, "obj", 0x1001)
	var once sync.Once
	nd := fc.nodes[victim]
	nd.mu.Lock()
	nd.onFetch = func() { // the request arrived; the answer never leaves
		once.Do(func() { fc.fab.Partition("principal", fc.m.Nodes[victim].Addr) })
	}
	nd.mu.Unlock()

	for i := 0; cc.Counters().WidenedOnLegError == 0; i++ {
		if i == fc.m.N() {
			t.Fatalf("%d reads and none asked node %d", i, victim+1)
		}
		v, trace, err := obj.ReadTraced(0)
		if err != nil || v != 0x1001 {
			t.Fatalf("read #%d = %#x, %v", i, v, err)
		}
		if failed := len(trace.Failed); failed > 0 && (failed != 1 || trace.Failed[0] != fc.m.Nodes[victim].ID) {
			t.Fatalf("read #%d failed on %v, want node %d only", i, trace.Failed, victim+1)
		}
	}
	if c := cc.Counters(); c.WidenedOnLegError != 1 || c.WidenedOnHedge != 0 {
		t.Fatalf("the read that lost node %d: %+v; want it widened on the leg error alone", victim+1, c)
	}
	before := cc.Counters()
	for i := 0; i < 3; i++ {
		v, trace, err := obj.ReadTraced(0)
		if err != nil || v != 0x1001 || len(trace.Failed) != 0 {
			t.Fatalf("read #%d after the loss = %#x, %v, failed %v", i, v, err, trace.Failed)
		}
	}
	if c := cc.Counters(); c.FetchLegs-before.FetchLegs != 3*uint64(fc.m.Quorum()) || c.WidenedReads() != before.WidenedReads() {
		t.Fatalf("three reads with node %d's connection dead: %+v after %+v; want a quorum of legs each", victim+1, c, before)
	}
}

// TestSilentNodeCostsOneHedge: a node that stays connected and stops
// answering costs its reader one hedge delay — the first round that asks it —
// and nothing after: the straggler holds the reader's slot there, so the node
// sits out of every later round, which neither waits nor parks a goroutine on
// it (at the parent commit every round did).
func TestSilentNodeCostsOneHedge(t *testing.T) {
	const silent, reads = 2, 100
	fc := startFabric(t, 5, 1, 343, nil)
	cc, obj := openWritten(t, fc, time.Minute, "obj", 0x1001) // the straggler outlives the test
	for i := 0; i < fc.m.N(); i++ {
		if v, err := obj.Read(0); err != nil || v != 0x1001 {
			t.Fatalf("warm-up read = %#x, %v", v, err)
		}
	}
	settle(t, cc, 1)
	goroutines := runtime.NumGoroutine()

	addr := fc.m.Nodes[silent].Addr
	fc.fab.SetDelay("principal", addr, time.Hour)
	fc.fab.SetDelay(addr, "principal", time.Hour)
	for i := 0; cc.Counters().WidenedOnHedge == 0; i++ {
		if i == fc.m.N() {
			t.Fatalf("%d reads and none waited for node %d", i, silent+1)
		}
		if v, err := obj.Read(0); err != nil || v != 0x1001 {
			t.Fatalf("read #%d with node %d silent = %#x, %v", i, silent+1, v, err)
		}
	}
	before := cc.Counters()
	start := time.Now()
	for i := 0; i < reads; i++ {
		if v, err := obj.Read(0); err != nil || v != 0x1001 {
			t.Fatalf("read #%d with node %d silent = %#x, %v", i, silent+1, v, err)
		}
	}
	c := cc.Counters()
	if c.WidenedReads() != before.WidenedReads() {
		t.Fatalf("reads kept widening with node %d's slot held: %+v after %+v (%v for %d reads)", silent+1, c, before, time.Since(start), reads)
	}
	// One probe leg at most: parked on the held slot, it is the position's
	// only one until it is done.
	if extra := c.FetchLegs - before.FetchLegs - reads*uint64(fc.m.Quorum()); extra > 1 {
		t.Fatalf("%d reads started %d legs beyond a quorum each, want at most one probe", reads, extra)
	}
	if now := runtime.NumGoroutine(); now > goroutines+2 {
		t.Fatalf("%d goroutines before node %d went silent, %d after %d reads: legs are parking on it", goroutines, silent+1, now, reads)
	}
}

// TestCorruptorQuarantineCycle: a node that corrupts the shares it serves is
// caught by the first round that asks it — the quorum does not decide, the
// round widens and the consensus decode blames the node — then sits out of
// the reader's rounds while it is quarantined, and is voted clean by a probe
// round within probeEvery reads of serving honest shares again.
func TestCorruptorQuarantineCycle(t *testing.T) {
	const n, byz, probeEvery = 5, 3, 16
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	fc := startFabric(t, n, 1, 344, dirs, func(i int, cfg *server.Config) { cfg.CorruptShares = i == byz })
	cc, obj := openWritten(t, fc, 0, "obj", 0x1111)
	id := fc.m.Nodes[byz].ID
	asked := func() int {
		fc.nodes[byz].mu.Lock()
		defer fc.nodes[byz].mu.Unlock()
		return len(fc.nodes[byz].fetches)
	}

	for i := 0; len(cc.Suspects()) == 0; i++ {
		if i == n {
			t.Fatalf("%d reads and node %d was never caught", i, id)
		}
		v, trace, err := obj.ReadTraced(0)
		if err != nil || v != 0x1111 {
			t.Fatalf("read #%d = %#x, %v", i, v, err)
		}
		if len(trace.Corrupted) > 0 && !slices.Equal(trace.Corrupted, []uint32{id}) {
			t.Fatalf("read #%d blames %v, want node %d", i, trace.Corrupted, id)
		}
	}
	if c, s := cc.Counters(), cc.Suspects(); c.WidenedOnInconclusive != 1 || !slices.Equal(s, []uint32{id}) {
		t.Fatalf("after the read that met the corruptor: %+v, suspects %v; want one round widened on an inconclusive quorum and node %d quarantined", c, s, id)
	}

	before, fetches := cc.Counters(), asked()
	for i := 0; i < 5; i++ { // short of the reader's next probe round
		if v, err := obj.Read(0); err != nil || v != 0x1111 {
			t.Fatalf("read #%d past the quarantine = %#x, %v", i, v, err)
		}
	}
	if c := cc.Counters(); c.FetchLegs-before.FetchLegs != 5*uint64(fc.m.Quorum()) || c.WidenedReads() != before.WidenedReads() || asked() != fetches {
		t.Fatalf("five reads with node %d quarantined: %+v after %+v, %d fetches reached it; want a quorum of legs each and none for it",
			id, c, before, asked()-fetches)
	}

	fc.stop(byz)
	fc.nodes[byz].cfg.CorruptShares = false
	fc.boot(t, byz)
	// The next write's leg to the node redials and reopens; wait until it has
	// landed, so that the probe round finds the connection up.
	if err := obj.Write(0x2222); err != nil {
		t.Fatalf("Write after the honest restart: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if stats, err := cc.NodeStats(); err == nil && stats[byz].Err == nil {
			if w, _ := shareLegs(stats[byz]); w == 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("the write after the restart never reached node %d", id)
		}
	}
	for i := 0; len(cc.Suspects()) > 0; i++ {
		if i == probeEvery {
			t.Fatalf("node %d still quarantined %d reads after it healed", id, i)
		}
		v, trace, err := obj.ReadTraced(0)
		if err != nil || v != 0x2222 || len(trace.Corrupted) != 0 {
			t.Fatalf("read #%d after the honest restart = %#x, %v, corrupted %v", i, v, err, trace.Corrupted)
		}
	}
	if c := cc.Counters(); c.SuspectClears != 1 || c.FullWaveReads == 0 {
		t.Fatalf("after the quarantine lifted: %+v; want one clear, by a probe round", c)
	}
}

// TestWriteInFlightWidensBeforeBackoff: a write that has reached fewer than a
// quorum of nodes leaves no wid a read can decide on. A round that finds
// that asks the nodes that sat out before it gives up — their answers may be
// what decides — and only then backs off and retries; once the write
// completes, the read returns it.
func TestWriteInFlightWidensBeforeBackoff(t *testing.T) {
	fc := startFabric(t, 5, 1, 345, nil)
	wcc := fc.dialAs(t, "writer", 5*time.Second)
	wobj, err := wcc.Open("obj")
	if err != nil {
		t.Fatalf("writer Open: %v", err)
	}
	if err := wobj.Write(1); err != nil {
		t.Fatalf("Write: %v", err)
	}
	settle(t, wcc, 1)
	cc := fc.dial(t, 0)
	obj, err := cc.Open("obj")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	// The second write stops at n−2 nodes: short of a quorum, and exactly the
	// k holders a decode needs but one short of the support a read demands.
	lag := fc.m.Nodes[:2]
	for _, nd := range lag {
		fc.fab.SetDelay("writer", nd.Addr, time.Hour)
		fc.fab.SetDelay(nd.Addr, "writer", time.Hour)
	}
	wrote := make(chan error, 1)
	go func() { wrote <- wobj.Write(2) }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		stats, err := cc.NodeStats()
		if err != nil {
			t.Fatalf("NodeStats: %v", err)
		}
		landed := 0
		for _, ns := range stats {
			if w, _ := shareLegs(ns); ns.Err == nil && w == 2 {
				landed++
			}
		}
		if landed == fc.m.N()-len(lag) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the second write landed on %d nodes, want %d", landed, fc.m.N()-len(lag))
		}
	}

	type result struct {
		v     uint64
		trace cluster.ReadTrace
		err   error
	}
	read := make(chan result, 1)
	go func() {
		v, trace, err := obj.ReadTraced(0)
		read <- result{v, trace, err}
	}()
	for deadline := time.Now().Add(time.Second); cc.Counters().WidenedOnInconclusive == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the read never widened on the straddling write: %+v", cc.Counters())
		}
	}
	for _, nd := range lag {
		fc.fab.SetDelay("writer", nd.Addr, 0)
		fc.fab.SetDelay(nd.Addr, "writer", 0)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("second Write: %v", err)
	}
	r := <-read
	if r.err != nil || r.v != 2 {
		t.Fatalf("read across the write = %d, %v (trace %+v); want 2", r.v, r.err, r.trace)
	}
	// Every round that gave up had widened first.
	if c := cc.Counters(); r.trace.Retries == 0 || c.WidenedOnInconclusive < uint64(r.trace.Retries) || c.FetchLegs < uint64(fc.m.N()*r.trace.Retries+fc.m.Quorum()) {
		t.Fatalf("read retried %d times with %+v; want every retried round widened to all %d nodes first", r.trace.Retries, c, fc.m.N())
	}
}
