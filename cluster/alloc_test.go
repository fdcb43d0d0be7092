package cluster_test

import (
	"testing"
	"time"

	"auditreg/internal/race"
	"auditreg/server"
)

// TestClusterOpAllocationBound pins the allocations of a steady-state
// dispersed op over an in-process n=5 f=1 cluster — the client and the five
// in-process servers together, since one process cannot tell them apart (a
// share write costs a server two to three: the max register's new triple and
// its amortized history and pad blocks; a share fetch costs it nothing). A
// fan-out spawns nothing and its legs recycle their frames, so the client's
// part is the round's own bookkeeping: the result channel, the collected
// results, the IDA shares, and — on a read — the per-wid share maps and the
// verified decode. Measured 28 / 60 / 27 (AllocsPerRun runs on one P, where
// the reader's previous straggler often still holds its slot and costs the
// next read a goroutine); the goroutine-per-leg fan-out with its writer
// goroutines and announce frames measured 45 / 105 / 44.
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
		{"Write", write, 31},
		{"Write + effective Read", func() { write(); read() }, 66},
		{"silent Read", read, 30},
	} {
		if n := testing.AllocsPerRun(500, c.op); n > c.bound {
			t.Errorf("cluster %s allocated %v times, want <= %v", c.what, n, c.bound)
		}
	}
}
