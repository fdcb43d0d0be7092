package cluster_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"auditreg/client"
	"auditreg/cluster"
	"auditreg/internal/netsim"
	"auditreg/persist"
	"auditreg/server"
	"auditreg/store"
	"auditreg/wire"
)

// TestClusterOverFabric runs a whole 5-node cluster over the netsim fabric
// — in-process listeners, seeded asymmetric link latency, no sockets — and
// drives it through a partition: with f=1 the client keeps writing and
// reading while one node is unreachable, and the merged audit at the end
// (partition healed) is exact.
func TestClusterOverFabric(t *testing.T) {
	const n, f = 5, 1
	fab := netsim.NewFabric(42, 2*time.Millisecond)

	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node%d", i+1)
	}
	m := cluster.SeededMembership(addrs, f, 301)

	for i := 0; i < n; i++ {
		srv, err := server.New(server.Config{
			Key:          m.Nodes[i].Key,
			Readers:      4,
			NodeID:       m.Nodes[i].ID,
			PoolInterval: time.Millisecond,
		})
		if err != nil {
			t.Fatalf("server.New node %d: %v", i+1, err)
		}
		ln, err := fab.Listen(addrs[i])
		if err != nil {
			t.Fatalf("fabric listen %s: %v", addrs[i], err)
		}
		go srv.Serve(ln)
		defer ln.Close()
	}

	cc, err := cluster.Dial(m, cluster.WithClientOptions(func(nd cluster.Node) []client.Option {
		return []client.Option{
			client.WithDialer(fab.Dialer("principal")),
			client.WithConns(1),
			client.WithDialTimeout(2 * time.Second),
		}
	}))
	if err != nil {
		t.Fatalf("cluster.Dial over fabric: %v", err)
	}
	defer cc.Close()

	obj, err := cc.Open("obj")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := obj.Write(0x1001); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if v, err := obj.Read(0); err != nil || v != 0x1001 {
		t.Fatalf("Read = %#x, %v", v, err)
	}

	// Cut the client off from node 2 and keep operating: the write counts
	// node 2 against f and the quorum carries on.
	fab.Partition("principal", "node2")
	if err := obj.Write(0x2002); err != nil {
		t.Fatalf("Write under partition: %v", err)
	}
	v, trace, err := obj.ReadTraced(1)
	if err != nil {
		t.Fatalf("Read under partition: %v", err)
	}
	if v != 0x2002 {
		t.Fatalf("Read under partition = %#x, want 0x2002", v)
	}
	// The write found node 2's connection dead, so the read left the node out
	// or, if it asked, counted it against f: nobody else may have failed.
	if trace.Responded < m.Quorum() || len(trace.Failed) > 1 || (len(trace.Failed) == 1 && trace.Failed[0] != 2) {
		t.Fatalf("trace under partition: %d responded, failed %v; want a quorum, and node 2 the only failure", trace.Responded, trace.Failed)
	}

	// Heal and merge: both observed pairs must be charged, node 2 included
	// in the merge again.
	fab.Heal("principal", "node2")
	var merged cluster.Merged
	deadline := time.Now().Add(5 * time.Second)
	for {
		merged, err = obj.Audit()
		if err == nil && merged.Nodes == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("full merge never recovered: nodes=%d err=%v", merged.Nodes, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !merged.Report.Contains(0, 0x1001) {
		t.Errorf("merged audit misses (0, 0x1001)")
	}
	if !merged.Report.Contains(1, 0x2002) {
		t.Errorf("merged audit misses (1, 0x2002)")
	}
	for _, e := range merged.Report.Entries() {
		ok := (e.Reader == 0 && e.Value == 0x1001) || (e.Reader == 1 && e.Value == 0x2002)
		if !ok {
			t.Errorf("merged audit charges unobserved (reader %d, value %#x)", e.Reader, e.Value)
		}
	}
}

// fabCluster is an n-node cluster over a netsim fabric whose nodes a test can
// instrument, stop and reboot.
type fabCluster struct {
	fab   *netsim.Fabric
	m     cluster.Membership
	nodes []*fabNode
}

// fabNode is one daemon of a fabCluster. journal counts the records the node
// journals by op (volatile nodes only: a data dir brings its own journal);
// frames counts share-plane frames in and out; fetches keeps the decoded
// SHARE-FETCH requests; onFetch, when set, runs as one arrives, before the
// node executes it.
type fabNode struct {
	cfg  server.Config
	srv  *server.Server
	ln   net.Listener
	done chan error

	mu      sync.Mutex
	journal map[store.JournalOp]int
	frames  int
	fetches []wire.ShareFetchReq
	onFetch func()
}

func (nd *fabNode) Record(r store.JournalRecord[uint64]) error {
	nd.mu.Lock()
	nd.journal[r.Op]++
	nd.mu.Unlock()
	return nil
}

func (nd *fabNode) tap(outbound bool, frame []byte) {
	f, _, err := wire.ParseFrame(frame)
	if err != nil || (f.Verb != wire.VerbShareFetch && f.Verb != wire.VerbShareWrite) {
		return
	}
	nd.mu.Lock()
	nd.frames++
	var req wire.ShareFetchReq
	var hook func()
	if !outbound && f.Verb == wire.VerbShareFetch && req.Decode(f.Body) == nil {
		nd.fetches = append(nd.fetches, req)
		hook = nd.onFetch
	}
	nd.mu.Unlock()
	if hook != nil {
		hook()
	}
}

// counts returns the node's journal record counts by op and its frame count.
func (nd *fabNode) counts() (fetch, announce, frames int) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.journal[store.JournalFetch], nd.journal[store.JournalAnnounce], nd.frames
}

// startFabric boots n nodes named node1..noden on an instant fabric; dirs, if
// non-nil, makes node i durable under dirs[i]; cfgHooks run against each
// node's config before its first boot.
func startFabric(t *testing.T, n, f int, seed uint64, dirs []string, cfgHooks ...func(i int, cfg *server.Config)) *fabCluster {
	t.Helper()
	fc := &fabCluster{fab: netsim.NewFabric(seed, 0)}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node%d", i+1)
	}
	fc.m = cluster.SeededMembership(addrs, f, seed)
	for i := 0; i < n; i++ {
		nd := &fabNode{journal: make(map[store.JournalOp]int)}
		nd.cfg = server.Config{
			Key:          fc.m.Nodes[i].Key,
			Readers:      4,
			NodeID:       fc.m.Nodes[i].ID,
			PoolInterval: time.Millisecond,
			FrameTap:     nd.tap,
		}
		if dirs != nil {
			nd.cfg.DataDir, nd.cfg.Fsync = dirs[i], persist.SyncNever
		}
		for _, hook := range cfgHooks {
			hook(i, &nd.cfg)
		}
		fc.nodes = append(fc.nodes, nd)
		fc.boot(t, i)
	}
	t.Cleanup(func() {
		for i := range fc.nodes {
			fc.stop(i)
		}
	})
	return fc
}

// boot starts (or restarts, from its data dir) node i.
func (fc *fabCluster) boot(t *testing.T, i int) {
	t.Helper()
	nd := fc.nodes[i]
	srv, err := server.New(nd.cfg)
	if err != nil {
		t.Fatalf("server.New node %d: %v", i+1, err)
	}
	if nd.cfg.DataDir == "" {
		srv.Store().SetJournal(nd)
	}
	ln, err := fc.fab.Listen(fc.m.Nodes[i].Addr)
	if err != nil {
		t.Fatalf("fabric listen %s: %v", fc.m.Nodes[i].Addr, err)
	}
	nd.srv, nd.ln, nd.done = srv, ln, make(chan error, 1)
	go func() { nd.done <- srv.Serve(ln) }()
}

// stop shuts node i down (idempotent).
func (fc *fabCluster) stop(i int) {
	nd := fc.nodes[i]
	if nd.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	nd.srv.Shutdown(ctx)
	<-nd.done
	nd.ln.Close()
	nd.srv = nil
}

// dial connects a cluster client named "principal", one connection per node.
func (fc *fabCluster) dial(t *testing.T, reqTimeout time.Duration) *cluster.Client {
	t.Helper()
	return fc.dialAs(t, "principal", reqTimeout)
}

// dialAs connects a cluster client under the given fabric endpoint name.
func (fc *fabCluster) dialAs(t *testing.T, name string, reqTimeout time.Duration) *cluster.Client {
	t.Helper()
	cc, err := cluster.Dial(fc.m, cluster.WithClientOptions(func(cluster.Node) []client.Option {
		return []client.Option{
			client.WithDialer(fc.fab.Dialer(name)),
			client.WithConns(1),
			client.WithDialTimeout(2 * time.Second),
			client.WithRequestTimeout(reqTimeout),
		}
	}))
	if err != nil {
		t.Fatalf("cluster.Dial over fabric: %v", err)
	}
	t.Cleanup(func() { cc.Close() })
	return cc
}

// shareReads returns how many share fetches, effective or silent, node i has
// served, from its STATS.
func shareReads(t *testing.T, cc *cluster.Client, i int) (uint64, error) {
	t.Helper()
	stats, err := cc.NodeStats()
	if err != nil {
		return 0, err
	}
	if stats[i].Err != nil {
		return 0, stats[i].Err
	}
	_, n := shareLegs(stats[i])
	return n, nil
}

// TestSilentNodeDoesNotBlockItsReader holds one node silent — connected, never
// answering — and has one reader read again and again. The first read that
// asks the node waits one hedge delay for it and widens; its leg straggles
// and keeps the reader's slot there, so every later read leaves the node out
// and returns at quorum — neither queueing its caller behind the straggler
// nor spending a goroutine on it (fan-out-never-blocks-past-quorum). The
// straggler's own request timer reaps it; once the node answers again a probe
// round redials it and the reader's fetches reach it again.
func TestSilentNodeDoesNotBlockItsReader(t *testing.T) {
	const timeout, silent = 400 * time.Millisecond, 2
	fc := startFabric(t, 5, 1, 311, nil)
	cc := fc.dial(t, timeout)
	obj, err := cc.Open("obj")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := obj.Write(0x1001); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if v, err := obj.Read(0); err != nil || v != 0x1001 {
		t.Fatalf("Read = %#x, %v", v, err)
	}
	settle(t, cc, 1)
	before, err := shareReads(t, cc, silent)
	if err != nil {
		t.Fatalf("stats of node %d: %v", silent+1, err)
	}

	addr := fc.m.Nodes[silent].Addr
	fc.fab.SetDelay("principal", addr, time.Hour)
	fc.fab.SetDelay(addr, "principal", time.Hour)
	start := time.Now()
	for i := 0; i < 4; i++ {
		t0 := time.Now()
		v, _, err := obj.ReadTraced(0)
		if err != nil || v != 0x1001 {
			t.Fatalf("read #%d with node %d silent = %#x, %v", i, silent+1, v, err)
		}
		if took := time.Since(t0); took > timeout/2 {
			t.Fatalf("read #%d with node %d silent took %v: it waited for the straggler (timeout %v)", i, silent+1, took, timeout)
		}
	}
	if took := time.Since(start); took > timeout {
		t.Fatalf("four reads took %v, past the request timeout %v: the test proved nothing", took, timeout)
	}

	time.Sleep(timeout) // the straggler's request timer fires meanwhile
	fc.fab.SetDelay("principal", addr, 0)
	fc.fab.SetDelay(addr, "principal", 0)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if v, err := obj.Read(0); err != nil || v != 0x1001 {
			t.Fatalf("read after node %d came back = %#x, %v", silent+1, v, err)
		}
		if after, err := shareReads(t, cc, silent); err == nil && after > before {
			return // reader 0's slot on the node was released, and a fetch got through
		}
		if time.Now().After(deadline) {
			t.Fatalf("reader 0's fetches never reached node %d again", silent+1)
		}
	}
}

// TestEffectiveReadIsOneRoundTrip pins what a read leaves behind: on each of
// the n−f nodes it asked exactly two frames, request and response — and, the
// first time the reader's fetch finds the value new there, one fetch record
// and one announce record (the node's own helping — nobody sends it one); a
// silent read no record. On the node that sat out, nothing.
func TestEffectiveReadIsOneRoundTrip(t *testing.T) {
	fc := startFabric(t, 5, 1, 312, nil)
	cc := fc.dial(t, 0)
	obj, err := cc.Open("obj")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := obj.Write(0x77); err != nil {
		t.Fatalf("Write: %v", err)
	}
	settle(t, cc, 1)

	type counts struct{ fetch, announce, frames int }
	snap := func() []counts {
		out := make([]counts, len(fc.nodes))
		for i, nd := range fc.nodes {
			out[i].fetch, out[i].announce, out[i].frames = nd.counts()
		}
		return out
	}
	fetched := make([]bool, len(fc.nodes)) // the reader has the value from this node
	for round := 0; round < 2*len(fc.nodes); round++ {
		before := snap()
		if v, err := obj.Read(1); err != nil || v != 0x77 {
			t.Fatalf("Read = %#x, %v", v, err)
		}
		settle(t, cc, 1)
		asked := 0
		for i, after := range snap() {
			got := counts{after.fetch - before[i].fetch, after.announce - before[i].announce, after.frames - before[i].frames}
			want := counts{}
			if got.frames != 0 {
				asked++
				if want = (counts{0, 0, 2}); !fetched[i] {
					want, fetched[i] = counts{1, 1, 2}, true
				}
			}
			if got != want {
				t.Errorf("read #%d on node %d left %+v, want %+v", round, i+1, got, want)
			}
		}
		if asked != fc.m.Quorum() {
			t.Errorf("read #%d asked %d nodes, want the quorum %d", round, asked, fc.m.Quorum())
		}
	}
	stats, err := cc.NodeStats()
	if err != nil {
		t.Fatalf("NodeStats: %v", err)
	}
	for _, ns := range stats {
		for _, p := range ns.Resp.Pairs {
			if p.Name == "announces" && p.Value != 1 {
				t.Errorf("node %d counts %d announces, want 1", ns.Node, p.Value)
			}
		}
	}
}

// TestRestartDropsSlotCache kills a durable node and restarts it from its
// WAL — new boot epoch, renumbered sequence numbers — while a reader holds a
// slot cache filled before the kill. The reader's next fetch that reaches
// the node must carry no previous sequence number (the epoch rule), and every
// cluster read on the way there must return the newest value with nobody
// blamed. A read asks a quorum, so both times the reader reads until the
// node has been asked.
func TestRestartDropsSlotCache(t *testing.T) {
	const n, victim = 5, 1
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	fc := startFabric(t, n, 1, 313, dirs)
	cc := fc.dial(t, 0)
	obj, err := cc.Open("obj")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := obj.Write(0x1111); err != nil {
		t.Fatalf("Write: %v", err)
	}
	nd := fc.nodes[victim]
	asked := func() []wire.ShareFetchReq {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		return append([]wire.ShareFetchReq(nil), nd.fetches...)
	}
	for deadline := time.Now().Add(10 * time.Second); len(asked()) == 0; settle(t, cc, 1) {
		if v, err := obj.Read(0); err != nil || v != 0x1111 {
			t.Fatalf("Read = %#x, %v", v, err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("reader 0 never asked node %d", victim+1)
		}
	} // reader 0 now caches the victim's share

	fc.stop(victim)
	if err := obj.Write(0x2222); err != nil {
		t.Fatalf("Write with node %d down: %v", victim+1, err)
	}
	fc.boot(t, victim)
	// The next write's leg to the restarted node redials and reopens; wait
	// until it has landed, so that the read below finds the connection up.
	if err := obj.Write(0x3333); err != nil {
		t.Fatalf("Write after the restart: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		stats, err := cc.NodeStats()
		if err == nil && stats[victim].Err == nil {
			landed := false
			for _, p := range stats[victim].Resp.Pairs {
				landed = landed || (p.Name == "share-writes" && p.Value == 1)
			}
			if landed {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("the write after the restart never reached node %d", victim+1)
		}
	}

	nd.mu.Lock()
	nd.fetches = nil
	nd.mu.Unlock()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		v, trace, err := obj.ReadTraced(0)
		if err != nil || v != 0x3333 || len(trace.Corrupted) != 0 {
			t.Fatalf("Read after the restart = %#x, %v, trace %+v", v, err, trace)
		}
		if fetches := asked(); len(fetches) > 0 {
			if f := fetches[0]; f.Reader != 0 || f.PrevSeq != ^uint64(0) {
				t.Fatalf("first fetch on the restarted node = %+v: the slot cache survived the restart", f)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("reader 0's fetch never reached the restarted node %d", victim+1)
		}
	}
}

// sameMerged reports whether two merged audits say the same thing: the same
// nodes covered, the same charged set, the same undecided pairs with the same
// logger counts, the same blamed nodes.
func sameMerged(a, b cluster.Merged) bool {
	return a.Object == b.Object && a.Nodes == b.Nodes && a.Report.Equal(b.Report) &&
		slices.Equal(a.Undecided, b.Undecided) && slices.Equal(a.Corrupted, b.Corrupted)
}

// TestTailingMergeEqualsFresh holds the tailing cluster auditor to its one
// claim: at every audit of a seeded random history, the object that has been
// merging deltas all along returns what a brand-new client's first audit
// returns. The history is built to visit every kind of verdict and every way
// a verdict changes: completed reads (charged pairs, the same value under
// several wids), a curious reader that stops after fewer than k fetches and
// sometimes resumes (Undecided, with growing logger counts, then charged), a
// node whose journal holds a share the writer never sent (Corrupted, found
// when surplus loggers arrive), and a node killed and rebooted empty in the
// middle of the tail (its epoch changes and its log shrinks: every pair it
// logged loses a logger, and pairs that were charged may not be any more).
// Every operation runs to completion on all live nodes before the next, so
// the two audits compared see the same logs.
func TestTailingMergeEqualsFresh(t *testing.T) {
	const n, f, liar, victim, curious = 5, 1, 1, 4, 3 // positions; curious is a reader index
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	fc := startFabric(t, n, f, 331, nil)
	cc := fc.dial(t, 2*time.Second)
	const name = "tail"
	obj, err := cc.Open(name)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// One plain client per node: the curious reader fetches single shares.
	single := make([]*client.Object, n)
	for i, nd := range fc.m.Nodes {
		cl, err := client.Dial(nd.Addr, client.WithDialer(fc.fab.Dialer("curious")), client.WithConns(1), client.WithNode(nd.ID))
		if err != nil {
			t.Fatalf("Dial node %d: %v", nd.ID, err)
		}
		defer cl.Close()
		if single[i], err = cl.Open(name, store.MaxRegister); err != nil {
			t.Fatalf("Open on node %d: %v", nd.ID, err)
		}
	}

	// quiesce waits until every leg started so far has been executed. Writes
	// are n-wide: writes[i] counts the share writes node i must have executed
	// since it booted. A read asks a quorum of the client's choosing, so the
	// fetches are counted in all: the nodes that are up must together show the
	// fetch legs cc started plus the curious reader's peeks, less gone — the
	// fetches no node that is up will ever show, because the victim served
	// them before it was killed or they were sent its way while it was down.
	var writes [n]uint64
	var peeks, gone uint64
	up := func(i int) bool { return fc.nodes[i].srv != nil }
	quiesce := func(step int) {
		t.Helper()
		var last string
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
			stats, err := cc.NodeStats()
			if err != nil {
				t.Fatalf("seed %d step %d: NodeStats: %v", seed, step, err)
			}
			last = ""
			var fetched uint64
			for i, ns := range stats {
				if !up(i) {
					continue
				}
				w, r := shareLegs(ns)
				fetched += r
				if ns.Err != nil || w != writes[i] {
					last = fmt.Sprintf("node %d: err %v, share-writes %d (want %d)", ns.Node, ns.Err, w, writes[i])
				}
			}
			if want := cc.Counters().FetchLegs + peeks - gone; fetched != want {
				last = fmt.Sprintf("share fetches over the nodes that are up = %d, want %d", fetched, want)
			}
			if last == "" {
				return
			}
		}
		t.Fatalf("seed %d step %d: cluster never settled: %s", seed, step, last)
	}
	write := func(step int) {
		t.Helper()
		if err := obj.Write(uint64(1 + rng.Intn(4))); err != nil { // few values: one value under several wids
			t.Fatalf("seed %d step %d: Write: %v", seed, step, err)
		}
		for i := range writes {
			if up(i) {
				writes[i]++
			}
		}
	}
	compare := func(step int) {
		t.Helper()
		tail, err := obj.Audit()
		if err != nil {
			t.Fatalf("seed %d step %d: tailing Audit: %v", seed, step, err)
		}
		fcc := fc.dial(t, 2*time.Second)
		defer fcc.Close()
		fobj, err := fcc.Open(name)
		if err != nil {
			t.Fatalf("seed %d step %d: fresh Open: %v", seed, step, err)
		}
		fresh, err := fobj.Audit()
		if err != nil {
			t.Fatalf("seed %d step %d: fresh Audit: %v", seed, step, err)
		}
		if !sameMerged(tail, fresh) {
			t.Fatalf("seed %d step %d: tailing and fresh merge differ:\n tail  nodes=%d %v undecided=%v corrupted=%v\n fresh nodes=%d %v undecided=%v corrupted=%v",
				seed, step, tail.Nodes, tail.Report, tail.Undecided, tail.Corrupted, fresh.Nodes, fresh.Report, fresh.Undecided, fresh.Corrupted)
		}
	}
	read := func(step, reader int) {
		t.Helper()
		before := cc.Counters().FetchLegs
		_, trace, err := obj.ReadTraced(reader)
		if err != nil {
			t.Fatalf("seed %d step %d: Read: %v", seed, step, err)
		}
		if !up(victim) {
			// The n−f nodes that are up are the quorum: every round asked each
			// of them, and whatever else it started went the victim's way.
			gone += cc.Counters().FetchLegs - before - uint64((n-f)*(1+trace.Retries))
		}
	}
	// peek is the curious reader taking one more share of the current write,
	// from node i, and stopping there.
	peek := func(step, i int) {
		t.Helper()
		if _, err := single[i].ShareRead(curious); err != nil {
			t.Fatalf("seed %d step %d: ShareRead on node %d: %v", seed, step, i+1, err)
		}
		peeks++
	}
	// lie puts a share the writer never sent into the liar's journal, under
	// the resident wid: it raises one zero bit (a max register only takes a
	// larger value).
	lie := func(step int) {
		t.Helper()
		local, _ := fc.nodes[liar].srv.Store().Lookup(name)
		packed, _ := local.Peek()
		for bit := uint64(1); bit < 1<<(8*uint(fc.m.ShareLen())); bit <<= 1 {
			if packed&bit == 0 {
				if err := local.Write(packed | bit); err != nil {
					t.Fatalf("seed %d step %d: corrupting write: %v", seed, step, err)
				}
				return
			}
		}
	}
	var sawUndecided, sawCorrupted bool
	phase := func(from, to int, lies bool) {
		// Whatever the dice say, a lying phase opens by walking one pair
		// through every verdict: the curious reader holds exactly k shares of
		// a write, the liar's among them (charged, unverified, with a value
		// nobody wrote), then k+1 (the lie shows, no value has a quorum behind
		// it: the charge is taken back and the pair is undecided), then all n
		// (charged with the written value, the liar blamed).
		write(from)
		peek(from, 0)
		quiesce(from)
		if lies {
			lie(from)
			for _, i := range []int{liar, 2, 3, 0, victim} {
				if i != 0 {
					peek(from, i)
					quiesce(from)
				}
				compare(from)
			}
		}
		for step := from; step < to; step++ {
			switch r := rng.Intn(12); {
			case r < 3:
				write(step)
			case r < 6:
				read(step, rng.Intn(curious))
			case r < 8:
				if i := rng.Intn(n); up(i) {
					peek(step, i)
				}
			case r < 9 && lies:
				lie(step)
			default:
				quiesce(step)
				compare(step)
				continue
			}
			quiesce(step)
		}
		compare(to)
		m, err := obj.Audit()
		if err != nil {
			t.Fatalf("seed %d step %d: Audit: %v", seed, to, err)
		}
		sawUndecided = sawUndecided || len(m.Undecided) > 0
		sawCorrupted = sawCorrupted || len(m.Corrupted) > 0
	}

	phase(0, 60, true)
	// With a node down the cluster has no fault left to spend on a lying
	// share (f = 1): the phase opens with a clean write and tells no lies.
	stats, err := cc.NodeStats()
	if err != nil || stats[victim].Err != nil {
		t.Fatalf("seed %d: stats of node %d before it is killed: %v, %v", seed, victim+1, err, stats[victim].Err)
	}
	_, served := shareLegs(stats[victim])
	gone += served
	fc.stop(victim)
	phase(60, 90, false)
	fc.boot(t, victim)
	writes[victim] = 0
	phase(90, 150, true)
	if !sawUndecided || !sawCorrupted {
		t.Fatalf("seed %d: the history never reached every verdict: undecided seen %v, corrupted seen %v", seed, sawUndecided, sawCorrupted)
	}
}
