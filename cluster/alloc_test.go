package cluster_test

import (
	"testing"
	"time"

	"auditreg/internal/race"
	"auditreg/server"
)

// TestClusterOpAllocationBound pins the allocations of a steady-state
// dispersed op over an in-process n=5 f=1 cluster — the client and the five
// in-process servers together, since one process cannot tell them apart. A
// share write costs a server nothing: M keeps its (value, nonce) pair in
// place, the pad window its blocks, and history chunks amortize away; an
// effective share fetch costs nothing either. A memory profile puts what a
// Write still pays on the slow-leg goroutines writeQuorum starts for a node
// whose leg cannot start inline. The client's part is otherwise nothing: a
// fan-out spawns no goroutine, its legs recycle their frames and deliver
// into a pooled client.Round, a read leaves out the node whose slot a
// straggler still holds instead of spending a goroutine on it, and the
// round's bookkeeping — IDA shares, per-position answers, pad memo, the
// verified decode and its re-encode — lives in the object's scratch.
// Measured 4–6 / 2–4 / 0 over twenty runs beside the other packages' alloc
// tests (a collection in the middle empties the pools); the bounds leave
// that room. While M boxed every share write and the pad window allocated a
// block per miss it was 10–12 / 9–10 / 0, and 13, once 15, beside the other
// packages; with a result channel per fan-out and n-wide reads 13 / 20 / 7,
// with per-round maps and share slices 28 / 60 / 27, with a goroutine per
// leg, writer goroutines and announce frames 45 / 105 / 44.
func TestClusterOpAllocationBound(t *testing.T) {
	if race.Enabled {
		t.Skip("a sync.Pool discards at random under -race")
	}
	tc := startCluster(t, 5, 1, 107, func(_ int, cfg *server.Config) {
		cfg.PoolInterval = time.Hour // no background sweeps: the counts stay the ops' own
	})
	cc := dialCluster(t, tc)
	obj, err := cc.Open("alloc")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	v := uint64(1)
	write := func() {
		v++
		if err := obj.Write(v); err != nil {
			t.Fatal(err)
		}
	}
	read := func() {
		if _, err := obj.Read(0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ { // warm the pools, the slots, the wid
		write()
		read()
	}
	for _, c := range []struct {
		what  string
		op    func()
		bound float64
	}{
		{"Write", write, 9},
		{"Write + effective Read", func() { write(); read() }, 8},
		{"silent Read", read, 2},
	} {
		if n := testing.AllocsPerRun(500, c.op); n > c.bound {
			t.Errorf("cluster %s allocated %v times, want <= %v", c.what, n, c.bound)
		}
	}
}

// TestTailAuditAllocationBound pins what the tailing cluster auditor pays
// for looking again when nothing happened: five one-row AUDIT round trips
// (client and in-process servers counted together, as above), five goroutines
// to run them side by side, and a merge that finds nothing to fold and
// nothing to decide — the same handful of allocations whatever the number of
// pairs already merged. At the parent commit a re-audit re-merged every pair:
// a share-row set, a table entry and a report entry each.
func TestTailAuditAllocationBound(t *testing.T) {
	if race.Enabled {
		t.Skip("a sync.Pool discards at random under -race")
	}
	tc := startCluster(t, 5, 1, 108, func(_ int, cfg *server.Config) {
		cfg.PoolInterval = time.Hour
	})
	cc := dialCluster(t, tc)
	obj, err := cc.Open("alloc/tail")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var v uint64
	for _, history := range []int{50, 800} {
		for ; v < uint64(history); v++ {
			if err := obj.Write(v + 1); err != nil {
				t.Fatal(err)
			}
			if _, err := obj.Read(int(v % 4)); err != nil {
				t.Fatal(err)
			}
		}
		settle(t, cc, v)
		m, err := obj.Audit() // folds what is new; the runs below find nothing new
		if err != nil || m.Report.Len() != history {
			t.Fatalf("audit at %d writes of history: %d pairs, err %v", history, m.Report.Len(), err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if m, err := obj.Audit(); err != nil || m.Report.Len() != history {
				t.Fatalf("quiescent re-audit: %d pairs, err %v", m.Report.Len(), err)
			}
		}); n > 60 {
			t.Errorf("quiescent re-audit over %d merged pairs allocated %v times, want a constant <= 60", history, n)
		} else {
			t.Logf("quiescent re-audit over %d merged pairs: %v allocations", history, n)
		}
	}
}
