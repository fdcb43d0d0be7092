package cluster_test

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"auditreg/cluster"
	"auditreg/server"
)

// testCluster is an in-process cluster: n auditd servers booted with their
// positional node ids and the seeded per-node store keys.
type testCluster struct {
	m     cluster.Membership
	srvs  []*server.Server
	dones []chan error
}

// startCluster boots the cluster; cfgHooks (optional) run against each
// node's config before server.New — how a test plants one Byzantine node.
func startCluster(t testing.TB, n, f int, seed uint64, cfgHooks ...func(i int, cfg *server.Config)) *testCluster {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	tc := &testCluster{m: cluster.SeededMembership(addrs, f, seed)}
	if err := tc.m.Validate(); err != nil {
		t.Fatalf("membership: %v", err)
	}
	for i := 0; i < n; i++ {
		cfg := server.Config{
			Key:          tc.m.Nodes[i].Key,
			Readers:      4,
			NodeID:       tc.m.Nodes[i].ID,
			PoolInterval: time.Millisecond,
		}
		for _, hook := range cfgHooks {
			hook(i, &cfg)
		}
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatalf("server.New node %d: %v", i+1, err)
		}
		done := make(chan error, 1)
		ln := lns[i]
		go func() { done <- srv.Serve(ln) }()
		tc.srvs = append(tc.srvs, srv)
		tc.dones = append(tc.dones, done)
	}
	t.Cleanup(tc.stopAll)
	return tc
}

// stop shuts node i down (idempotent).
func (tc *testCluster) stop(i int) {
	if tc.srvs[i] == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	tc.srvs[i].Shutdown(ctx)
	<-tc.dones[i]
	tc.srvs[i] = nil
}

func (tc *testCluster) stopAll() {
	for i := range tc.srvs {
		tc.stop(i)
	}
}

func dialCluster(t testing.TB, tc *testCluster) *cluster.Client {
	t.Helper()
	cc, err := cluster.Dial(tc.m)
	if err != nil {
		t.Fatalf("cluster.Dial: %v", err)
	}
	t.Cleanup(func() { cc.Close() })
	return cc
}

// shareLegs sums what one node's STATS say it has executed on the share
// plane: share writes, and share fetches effective or silent.
func shareLegs(ns cluster.NodeStat) (writes, fetches uint64) {
	for _, p := range ns.Resp.Pairs {
		switch p.Name {
		case "share-writes":
			writes = p.Value
		case "share-fetches", "share-silent":
			fetches += p.Value
		}
	}
	return writes, fetches
}

// settle waits until the nodes have executed every leg cc has started: each
// of the n nodes has served writes share writes (a write is n-wide), and
// together they have served as many share fetches as the client's FetchLegs
// counter says it started (a read asks a quorum, and which nodes that was is
// the client's business). Cluster operations return at the n−f quorum with up
// to f write legs — after a widened read, fetch legs — still in flight
// (DESIGN.md, invariant quorum-early-return), and a straggling leg may be
// overtaken by the same client's next operation. A test that needs a quiet
// run — one where no leg of one operation lands among the legs of another —
// calls settle between operations. It polls real completion counters up to a
// bounded deadline; it is not a sleep.
func settle(t *testing.T, cc *cluster.Client, writes uint64) {
	t.Helper()
	var last string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
		stats, err := cc.NodeStats()
		if err != nil {
			t.Fatalf("NodeStats: %v", err)
		}
		last = ""
		var fetched uint64
		for _, ns := range stats {
			if ns.Err != nil {
				t.Fatalf("node %d stats: %v", ns.Node, ns.Err)
			}
			w, r := shareLegs(ns)
			fetched += r
			if w != writes {
				last = fmt.Sprintf("node %d: share-writes=%d (want %d)", ns.Node, w, writes)
			}
		}
		if legs := cc.Counters().FetchLegs; fetched != legs {
			last = fmt.Sprintf("share-fetches+silent over all nodes = %d, client started %d fetch legs", fetched, legs)
		}
		if last == "" {
			return
		}
	}
	t.Fatalf("cluster never settled: %s", last)
}

// TestWriteReadRoundTrip drives the basic dispersed register: the initial
// value is 0, each write becomes visible to every reader, and values
// round-trip exactly through split → mask → pack → fetch → unmask →
// reconstruct.
func TestWriteReadRoundTrip(t *testing.T) {
	tc := startCluster(t, 5, 1, 101)
	cc := dialCluster(t, tc)
	obj, err := cc.Open("acct/1")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	if v, err := obj.Read(0); err != nil || v != 0 {
		t.Fatalf("initial Read = %d, %v; want 0, nil", v, err)
	}
	for i, v := range []uint64{0xDEADBEEF, 1, 0xFFFF_FFFF_FFFF_FFFF, 42} {
		if err := obj.Write(v); err != nil {
			t.Fatalf("Write #%d: %v", i, err)
		}
		for r := 0; r < obj.Readers(); r++ {
			got, trace, err := obj.ReadTraced(r)
			if err != nil {
				t.Fatalf("Read(%d) after write #%d: %v", r, i, err)
			}
			if got != v {
				t.Fatalf("Read(%d) = %#x, want %#x", r, got, v)
			}
			if trace.Wid != uint64(i+1) {
				t.Fatalf("read wid = %d, want %d", trace.Wid, i+1)
			}
			if trace.Responded < tc.m.Quorum() {
				t.Fatalf("read heard %d nodes, want >= %d", trace.Responded, tc.m.Quorum())
			}
		}
	}
}

// TestWidRecovery pins writer-restart monotonicity: a fresh cluster client
// (a writer that lost its in-memory wid) must probe the cluster, resume
// above the newest resident wid, and never reuse one.
func TestWidRecovery(t *testing.T) {
	tc := startCluster(t, 4, 1, 102)
	cc := dialCluster(t, tc)
	obj, err := cc.Open("obj")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for v := uint64(1); v <= 3; v++ {
		if err := obj.Write(v * 100); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}

	cc2 := dialCluster(t, tc)
	obj2, err := cc2.Open("obj")
	if err != nil {
		t.Fatalf("re-Open: %v", err)
	}
	if err := obj2.Write(999); err != nil {
		t.Fatalf("post-restart Write: %v", err)
	}
	v, trace, err := obj2.ReadTraced(1)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if v != 999 {
		t.Fatalf("Read = %d, want 999", v)
	}
	if trace.Wid != 4 {
		t.Fatalf("restarted writer issued wid %d, want 4 (monotone across restart)", trace.Wid)
	}
}

// TestCrashTolerance kills f nodes outright and checks the cluster keeps
// serving: writes reach a quorum, reads reconstruct from the survivors, and
// every value written before or after the crash stays readable.
func TestCrashTolerance(t *testing.T) {
	tc := startCluster(t, 5, 1, 103)
	cc := dialCluster(t, tc)
	obj, err := cc.Open("obj")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := obj.Write(0xA1); err != nil {
		t.Fatalf("pre-crash Write: %v", err)
	}
	if v, err := obj.Read(0); err != nil || v != 0xA1 {
		t.Fatalf("pre-crash Read = %#x, %v", v, err)
	}

	tc.stop(2) // kill node 3

	if err := obj.Write(0xB2); err != nil {
		t.Fatalf("post-crash Write: %v", err)
	}
	for r := 0; r < obj.Readers(); r++ {
		v, trace, err := obj.ReadTraced(r)
		if err != nil {
			t.Fatalf("post-crash Read(%d): %v", r, err)
		}
		if v != 0xB2 {
			t.Fatalf("post-crash Read(%d) = %#x, want 0xB2", r, v)
		}
		if len(trace.Failed) > tc.m.F {
			t.Fatalf("read reported %d failed nodes, budget f=%d", len(trace.Failed), tc.m.F)
		}
	}
}

// TestAuditMergeExact is the package's exactness test: after a quiet run
// (no read overlaps a write), the merged audit must charge exactly the
// (reader, value) pairs that were actually read — every observed pair
// present (completeness), nothing else and no undecided residue
// (soundness).
func TestAuditMergeExact(t *testing.T) {
	tc := startCluster(t, 5, 1, 104)
	cc := dialCluster(t, tc)
	obj, err := cc.Open("ledger")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	type pair struct {
		reader int
		value  uint64
	}
	observed := make(map[pair]bool)
	// Every operation is followed by settle: "quiet" means no leg of one
	// operation lands among the legs of another, and a quorum-early return
	// alone does not give that.
	var writes uint64
	write := func(v uint64) {
		if err := obj.Write(v); err != nil {
			t.Fatal(err)
		}
		writes++
		settle(t, cc, writes)
	}
	read := func(r int) {
		v, err := obj.Read(r)
		if err != nil {
			t.Fatalf("Read(%d): %v", r, err)
		}
		if v != 0 {
			observed[pair{r, v}] = true
		}
		settle(t, cc, writes)
	}

	write(0x1111)
	read(0)
	read(1)
	write(0x2222)
	read(1)
	read(2)
	write(0x3333)
	read(0)
	// Reader 3 never reads; reader 1 saw two values.

	merged, err := obj.Audit()
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if merged.Nodes != tc.m.N() {
		t.Fatalf("merged %d node audits, want %d", merged.Nodes, tc.m.N())
	}
	if len(merged.Undecided) != 0 {
		t.Fatalf("quiet run left undecided pairs: %+v", merged.Undecided)
	}
	for p := range observed {
		if !merged.Report.Contains(p.reader, p.value) {
			t.Errorf("merged audit misses observed (reader %d, value %#x)", p.reader, p.value)
		}
	}
	for _, e := range merged.Report.Entries() {
		if !observed[pair{e.Reader, e.Value}] {
			t.Errorf("merged audit charges (reader %d, value %#x) which was never read", e.Reader, e.Value)
		}
	}
	if got, want := merged.Report.Len(), len(observed); got != want {
		t.Errorf("merged report has %d entries, want %d", got, want)
	}
}

// TestAuditMergeSurvivesCrashRestart checks end-of-run exactness across a
// crash: reads observed values through a quorum while one node was down;
// after the node restarts (here: a fresh server on the same address with
// the same key — an empty store, the worst recovery case), the merge over
// all n still charges every observed pair, because each completed read
// logged its fetches on ≥ k surviving nodes.
func TestAuditMergeAcrossCrash(t *testing.T) {
	tc := startCluster(t, 5, 1, 105)
	cc := dialCluster(t, tc)
	obj, err := cc.Open("obj")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := obj.Write(0xAA); err != nil {
		t.Fatal(err)
	}
	tc.stop(4) // node 5 down
	if err := obj.Write(0xBB); err != nil {
		t.Fatal(err)
	}
	if v, err := obj.Read(2); err != nil || v != 0xBB {
		t.Fatalf("Read during outage = %#x, %v", v, err)
	}

	merged, err := obj.Audit() // quorum merge: 4 of 5 nodes
	if err != nil {
		t.Fatalf("Audit with node down: %v", err)
	}
	if merged.Nodes != 4 {
		t.Fatalf("merged %d nodes, want 4", merged.Nodes)
	}
	if !merged.Report.Contains(2, 0xBB) {
		t.Fatalf("quorum merge misses (2, 0xBB): %v", merged.Report)
	}
}

// TestNodeStats checks the health fan-out: every live node reports its
// node-id and share counters.
func TestNodeStats(t *testing.T) {
	tc := startCluster(t, 4, 1, 106)
	cc := dialCluster(t, tc)
	obj, err := cc.Open("obj")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := obj.Write(7); err != nil {
		t.Fatal(err)
	}
	settle(t, cc, 1) // Write returned at quorum; wait out the straggling leg
	stats, err := cc.NodeStats()
	if err != nil {
		t.Fatalf("NodeStats: %v", err)
	}
	for i, ns := range stats {
		if ns.Err != nil {
			t.Fatalf("node %d stats: %v", ns.Node, ns.Err)
		}
		var nodeID, shareWrites uint64
		for _, p := range ns.Resp.Pairs {
			switch p.Name {
			case "node-id":
				nodeID = p.Value
			case "share-writes":
				shareWrites = p.Value
			}
		}
		if nodeID != uint64(i+1) {
			t.Errorf("node %d reports node-id %d", i+1, nodeID)
		}
		if shareWrites != 1 {
			t.Errorf("node %d share-writes = %d, want 1", i+1, shareWrites)
		}
	}
}

// TestMembershipValidate pins the quorum arithmetic's guard rails.
func TestMembershipValidate(t *testing.T) {
	mk := func(n, f int) cluster.Membership {
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = "127.0.0.1:1"
		}
		return cluster.SeededMembership(addrs, f, 1)
	}
	for _, tc := range []struct {
		n, f int
		ok   bool
	}{
		{2, 0, true},  // degenerate: k=2, no fault tolerance
		{3, 1, false}, // n < 2f+2
		{4, 1, true},  // k=2, shareLen=4
		{5, 1, true},  // k=3, shareLen=3
		{6, 2, true},  // k=2
		{7, 2, true},  // k=3
		{5, 2, false}, // n < 2f+2
		{4, -1, false},
	} {
		m := mk(tc.n, tc.f)
		err := m.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("Validate(n=%d, f=%d) = %v, want ok=%v", tc.n, tc.f, err, tc.ok)
		}
		if err == nil {
			if k := m.Threshold(); k != tc.n-2*tc.f {
				t.Errorf("Threshold(n=%d, f=%d) = %d", tc.n, tc.f, k)
			}
			if sl := m.ShareLen(); sl < 1 || sl > 4 {
				t.Errorf("ShareLen(n=%d, f=%d) = %d out of [1,4]", tc.n, tc.f, sl)
			}
		}
	}

	bad := mk(4, 1)
	bad.Nodes[2].ID = 9
	if bad.Validate() == nil {
		t.Error("Validate accepted a non-positional node id")
	}
	bad = mk(4, 1)
	bad.Nodes[0].Addr = ""
	if bad.Validate() == nil {
		t.Error("Validate accepted an empty address")
	}
}
