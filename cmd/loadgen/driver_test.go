package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"auditreg"
	"auditreg/cluster"
	"auditreg/server"
)

type entry = auditreg.Entry[uint64]

// fakeTarget is an exact in-memory target: every object is a register whose
// audit is precisely the set of (reader, value) pairs its reads returned.
// views, when set, replaces that audit with canned ones (the verifier table);
// failWrites makes every write fail (the lost-op negative control).
type fakeTarget struct {
	views      []auditView
	failWrites bool

	mu      sync.Mutex
	vals    []uint64
	audited []map[entry]bool
}

func (f *fakeTarget) open(cfg cellConfig) ([]string, int, error) {
	names := make([]string, cfg.objects)
	f.vals = make([]uint64, cfg.objects)
	f.audited = make([]map[entry]bool, cfg.objects)
	for i := range names {
		names[i] = fmt.Sprintf("fake-%d", i)
		f.audited[i] = make(map[entry]bool)
	}
	return names, 2, nil
}

func (f *fakeTarget) write(obj int, v uint64) error {
	if f.failWrites {
		return errors.New("fake: write refused")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.vals[obj] = v
	return nil
}

func (f *fakeTarget) read(obj, reader int) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.audited[obj][entry{Reader: reader, Value: f.vals[obj]}] = true
	return f.vals[obj], nil
}

func (f *fakeTarget) lookup(int) error { return nil }

func (f *fakeTarget) audit(obj int) (auditView, error) {
	if f.views != nil {
		return f.views[obj], nil
	}
	view := auditView{nodes: 1}
	for e := range f.audited[obj] {
		view.charged = append(view.charged, e)
	}
	return view, nil
}

func (f *fakeTarget) counters() ([]any, error) {
	return nil, nil
}
func (f *fakeTarget) close() error { return nil }

// TestVerify is the table test of the one two-sided verifier. The driver
// observed (0, 5) and (1, 7) on a single object; writes attempted 5, 7 and 9;
// readers 0 and 1 fetched; reader 3 never touched the object.
func TestVerify(t *testing.T) {
	exact := []entry{{Reader: 0, Value: 5}, {Reader: 1, Value: 7}}
	with := func(extra ...entry) []entry { return append(exact[:2:2], extra...) }
	for _, tc := range []struct {
		name      string
		view      auditView
		observed  []entry       // default: exact
		failed    *ambiguousKey // a read by this (object, reader) failed once
		wantErr   string        // substring; "" means the cell verifies
		wantTally tally
	}{
		{name: "exact match", view: auditView{charged: exact, nodes: 1},
			wantTally: tally{checked: 1, pairs: 2, mergedNodesMin: 1}},
		{name: "audit dropped an observed pair", view: auditView{charged: exact[:1], nodes: 1},
			wantErr: "missing from the audit"},
		{name: "driver dropped an observation", view: auditView{charged: exact, nodes: 1}, observed: exact[:1],
			wantErr: "(1, 0x7) was never observed and no read by that reader failed"},
		{name: "charged value never attempted", view: auditView{charged: with(entry{Reader: 0, Value: 0xBAD}), nodes: 1},
			wantErr: "has a value no write ever attempted"},
		{name: "dispersed charge to a reader that never fetched", view: auditView{charged: with(entry{Reader: 3, Value: 9}), nodes: 5, dispersed: true},
			wantErr: "charged to a reader that never fetched on the object"},
		{name: "undecided pair from a reader that never fetched",
			view:    auditView{charged: exact, undecided: []cluster.Undecided{{Reader: 3, Wid: 2, Nodes: 1}}, nodes: 5, dispersed: true},
			wantErr: "undecided pair (reader 3, wid 2)"},
		{name: "undecided pair from a reader that fetched is counted",
			view:      auditView{charged: exact, undecided: []cluster.Undecided{{Reader: 1, Wid: 2, Nodes: 1}}, nodes: 5, dispersed: true},
			wantTally: tally{checked: 1, pairs: 2, undecided: 1, mergedNodesMin: 5}},
		{name: "ambiguous-read extra is counted, not failed", view: auditView{charged: with(entry{Reader: 3, Value: 9}), nodes: 1},
			failed:    &ambiguousKey{obj: 0, reader: 3},
			wantTally: tally{checked: 1, pairs: 3, ambiguous: 1, mergedNodesMin: 1}},
		{name: "dispersed overlap extra is counted", view: auditView{charged: with(entry{Reader: 1, Value: 9}), nodes: 5, dispersed: true},
			wantTally: tally{checked: 1, pairs: 3, staleCharged: 1, mergedNodesMin: 5}},
		{name: "the same overlap on a single store is unsound", view: auditView{charged: with(entry{Reader: 1, Value: 9}), nodes: 1},
			wantErr: "was never observed and no read by that reader failed"},
		{name: "dispersed read of the initial value is not charged", view: auditView{charged: exact, nodes: 5, dispersed: true},
			observed:  with(entry{Reader: 0, Value: 0}),
			wantTally: tally{checked: 1, pairs: 2, mergedNodesMin: 5}},
		{name: "single-store read of the initial value is charged", view: auditView{charged: exact, nodes: 1},
			observed: with(entry{Reader: 0, Value: 0}), wantErr: "(0, 0x0) missing from the audit"},
		{name: "corrupt journal", view: auditView{charged: exact, nodes: 5, corrupted: []uint32{2}, dispersed: true},
			wantErr: "corrupt journal shares on nodes [2]"},
		{name: "wrong read", view: auditView{charged: exact, nodes: 1}, observed: with(entry{Reader: 0, Value: 0x99}),
			wantErr: "WRONG READ"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.observed == nil {
				tc.observed = exact
			}
			var log workerLog
			for _, e := range tc.observed {
				log.obs = append(log.obs, observation{reader: e.Reader, val: e.Value})
			}
			for _, v := range []uint64{5, 7, 9} {
				log.attempted = append(log.attempted, attempt{val: v})
			}
			if tc.failed != nil {
				log.ambiguous = append(log.ambiguous, *tc.failed)
			}
			got, err := verify(&fakeTarget{views: []auditView{tc.view}}, []string{"obj"}, fold(1, []workerLog{log}), 1, 1)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("verify = %v; want an error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("verify: %v", err)
			}
			if got != tc.wantTally {
				t.Errorf("tally = %+v, want %+v", got, tc.wantTally)
			}
		})
	}
}

// TestExitStatusRule pins the one exit-status rule on a fake target, where
// the audit is exact by construction: a cell fails when an op never
// completed, when its plan errs, and when its plan returns without having
// fired — and passes otherwise, so the controls discriminate.
func TestExitStatusRule(t *testing.T) {
	cfg := cellConfig{name: "Fake", objects: 4, goroutines: 2, ops: 400, writePct: 25, auditPct: 5, verify: 4, seed: 1}
	fired := func(traffic) (uint64, error) { return 1, nil }
	for _, tc := range []struct {
		name    string
		target  *fakeTarget
		plan    plan
		wantErr string
	}{
		{name: "no plan", target: &fakeTarget{}},
		{name: "plan fired", target: &fakeTarget{}, plan: plan{run: fired}},
		{name: "lost op", target: &fakeTarget{failWrites: true}, plan: plan{run: fired}, wantErr: "never completed"},
		{name: "plan never fired", target: &fakeTarget{}, wantErr: "never fired",
			plan: plan{run: func(tr traffic) (uint64, error) { <-tr.done; return 0, nil }}},
		{name: "plan failed", target: &fakeTarget{}, wantErr: "restart: boom",
			plan: plan{run: func(traffic) (uint64, error) { return 0, errors.New("restart: boom") }}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := runCell(cfg, tc.target, tc.plan)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("runCell = %v; want an error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("runCell: %v", err)
			}
			if got := res.Metrics["verified-objects"]; got != 4 {
				t.Errorf("verified-objects = %v, want 4", got)
			}
		})
	}
}

// serve boots an in-process auditd on loopback and returns its address.
func serve(t *testing.T, cfg server.Config) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	})
	return ln.Addr().String()
}

// The metric keys each target's cell must emit. Readers of -out and of the
// result line depend on them: CI's jq and awk read ops/s, srv-wal-syncs,
// srv-wal-records, fetch-legs/read and widened-reads, and EXPERIMENTS.md's
// E12–E20 findings are written in these names. Dropping a key breaks them.
var (
	localKeys = []string{
		"audit-lookups", "audited-pairs", "ns/op", "ops/s", "pool-audits",
		"pool-sweeps", "reads", "verified-objects", "writes",
	}
	// nodeKeys serve -remote and -durable: one daemon behind the wire client.
	nodeKeys = []string{
		"allocs/op", "ambiguous-pairs", "audit-lookups", "audited-pairs",
		"bytes/op", "conns", "failed-ops", "kills", "ns/op", "ops/s", "p50-ns",
		"p99-ns", "reads", "retried-ops", "srv-conn-flushed-frames",
		"srv-conn-flushes", "srv-frames-in", "srv-frames-out",
		"srv-reads-fetched", "srv-reads-silent", "srv-shard-enqueues",
		"srv-shard-sheds", "srv-shards", "srv-wal-records",
		"srv-wal-sync-batch-gt-2", "srv-wal-syncs", "verified-objects", "writes",
	}
	// clusterKeys serve -cluster and -cluster -chaos.
	clusterKeys = []string{
		"audit-corrupted-nodes", "audited-pairs", "conns", "consensus-decodes",
		"corrupt-shares", "corrupted-reads", "failed-node-reads", "failed-ops",
		"faults", "fetch-legs/read", "kills", "max-op-ms", "merged-nodes",
		"nodes", "ns/op", "ops/s", "read-retries", "reads", "retried-ops",
		"stale-charged-pairs", "stale-reads", "suspect-clears", "suspect-marks",
		"undecided-pairs", "verified-decodes", "verified-objects",
		"widened-reads", "writes",
	}
)

// TestRunCell drives the one cell function end to end, fault plan none,
// against each of the three real targets: the local store, one in-process
// daemon on loopback, and five of them as an n=5 f=1 dispersal cluster. Each
// cell must verify every object, lose no op, carry its contractual name, and
// emit every metric key its target promises. No timing assertions.
func TestRunCell(t *testing.T) {
	const seed = 7
	cfg := cellConfig{
		objects: 12, goroutines: 4, ops: 2000, writePct: 25, auditPct: 5,
		components: 4, poolWorkers: 2, poolInterval: time.Millisecond, verify: 12, seed: seed,
	}
	none := plan{opDeadline: opDeadline}

	nodeAddr := serve(t, server.Config{Key: auditreg.KeyFromSeed(seed), Readers: 4, PoolInterval: time.Millisecond})
	addrs := make([]string, 5)
	mem := cluster.SeededMembership(addrs, 1, seed)
	for i := range mem.Nodes {
		mem.Nodes[i].Addr = serve(t, server.Config{
			Key: mem.Nodes[i].Key, Readers: 4, NodeID: mem.Nodes[i].ID, PoolInterval: time.Millisecond,
		})
	}

	for _, tc := range []struct {
		name     string
		target   target
		auditPct int
		keys     []string
	}{
		{"Loadgen/objects=12/goroutines=4", &localTarget{}, 5, localKeys},
		{"LoadgenRemote/objects=12/goroutines=4", &nodeTarget{addr: nodeAddr, conns: 2, tag: "t13"}, 5, nodeKeys},
		{"LoadgenCluster/n=5/f=1/objects=12/goroutines=4", &clusterTarget{mem: mem, conns: 2, tag: "t19"}, 0, clusterKeys},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := cfg
			cfg.name, cfg.auditPct = tc.name, tc.auditPct
			res, err := runCell(cfg, tc.target, none)
			if err != nil {
				t.Fatalf("runCell: %v", err)
			}
			if res.Name != tc.name {
				t.Errorf("result name = %q, want %q", res.Name, tc.name)
			}
			for key, want := range map[string]float64{"verified-objects": 12, "failed-ops": 0, "audit-corrupted-nodes": 0} {
				if got, ok := res.Metrics[key]; !ok || got != want {
					t.Errorf("%s = %v (present: %v), want %v", key, got, ok, want)
				}
			}
			if ops := res.Metrics["reads"] + res.Metrics["writes"] + res.Metrics["audit-lookups"]; ops != 2000 {
				t.Errorf("completed ops = %v, want 2000", ops)
			}
			if res.Metrics["audited-pairs"] == 0 {
				t.Error("audited-pairs = 0: the verifier compared nothing")
			}
			for _, key := range tc.keys {
				if _, ok := res.Metrics[key]; !ok {
					t.Errorf("metric %q is no longer emitted", key)
				}
			}
		})
	}
}
