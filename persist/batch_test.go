package persist

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"auditreg/store"
)

// TestGroupCommitAbsorbsConcurrentMutators pins the group commit: many
// goroutines writing under SyncAlways must share fsyncs — far fewer syncs
// than records — and the batch-size histogram must record multi-record
// syncs, while every write still blocks until stable. A blocked writer
// commits its stripe itself, taking everything queued when it gets the
// commit lock, so whether the others have appended by then was up to the
// scheduler: under a loaded full-suite run the unpaced version read 219
// syncs for 408 records, and parking only the stripe's loop (the version
// before writers committed) read 307. Each round therefore holds the commit
// lock — a stand-in for committers busy on slow fdatasyncs — until all eight
// writes are queued, then lets go: the first writer through takes all eight
// into one batch. Stripes is pinned to 1 because batches form per stripe:
// left at its GOMAXPROCS default, the eight objects hash onto as many
// stripes as the box has CPUs.
func TestGroupCommitAbsorbsConcurrentMutators(t *testing.T) {
	dir := t.TempDir()
	w, _, st := openWAL(t, dir, Options{Policy: SyncAlways, Stripes: 1})
	const writers = 8
	const perWriter = 50
	objs := make([]*store.Object[uint64], writers)
	for i := range objs {
		var err error
		if objs[i], err = st.Open("batch-"+string(rune('a'+i)), store.Register); err != nil {
			t.Fatalf("Open: %v", err)
		}
	}
	s := w.groups[0]
	queued := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.recs)
	}
	for k := 0; k < perWriter; k++ {
		s.cmu.Lock()
		var wg sync.WaitGroup
		for i := range objs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := objs[i].Write(uint64(k + 1)); err != nil {
					t.Errorf("Write: %v", err)
				}
			}()
		}
		for deadline := time.Now().Add(10 * time.Second); queued() < writers; time.Sleep(10 * time.Microsecond) {
			if time.Now().After(deadline) {
				n := queued()
				s.cmu.Unlock()
				wg.Wait()
				t.Fatalf("round %d: %d writes queued of %d", k, n, writers)
			}
		}
		s.cmu.Unlock()
		wg.Wait()
	}
	stats := w.Stats()
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if stats.Records < writers*perWriter {
		t.Fatalf("recorded %d records, want >= %d", stats.Records, writers*perWriter)
	}
	// With 8 concurrent blocked writers each fdatasync finds the others'
	// records queued behind it: demand strictly better than one fsync per two
	// records.
	if stats.Syncs == 0 || stats.Records/stats.Syncs < 2 {
		t.Fatalf("group commit did not batch: %d syncs for %d records", stats.Syncs, stats.Records)
	}
	var multi, histTotal uint64
	for i, n := range stats.SyncHist {
		histTotal += n
		if i >= 2 { // buckets ≤4 and up
			multi += n
		}
	}
	if histTotal != stats.Syncs {
		t.Fatalf("histogram counts %d syncs, Stats.Syncs says %d", histTotal, stats.Syncs)
	}
	if multi == 0 {
		t.Fatalf("no sync batched more than 2 records; histogram %v", stats.SyncHist)
	}
}

// TestSyncAlwaysAnnouncesDoNotSync pins that announce records — pure
// helping, journaled non-blocking — do not trigger fsyncs of their own under
// SyncAlways: after a read's fetch has synced, its announce waits in the
// append buffer, and the next blocking record's commit carries it into the
// same fdatasync (the periodic tick would flush it otherwise).
func TestSyncAlwaysAnnouncesDoNotSync(t *testing.T) {
	dir := t.TempDir()
	w, _, st := openWAL(t, dir, Options{Policy: SyncAlways, Interval: time.Hour})
	obj, err := st.Open("ann", store.Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := obj.Write(7); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := obj.Read(0); err != nil { // fetch (blocking, syncs) + announce (not)
		t.Fatalf("Read: %v", err)
	}
	base := w.Stats()
	time.Sleep(10 * time.Millisecond) // room for a wrongly woken committer
	if got := w.Stats(); got.Syncs != base.Syncs || got.Records != 3 {
		t.Fatalf("announce was committed on its own: syncs %d -> %d, %d records (open, write, fetch: 3)", base.Syncs, got.Syncs, got.Records)
	}
	if err := obj.Write(8); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if got := w.Stats(); got.Syncs != base.Syncs+1 || got.Records != 5 {
		t.Fatalf("the write's commit did not carry the announce: syncs %d -> %d, %d records, want 5", base.Syncs, got.Syncs, got.Records)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestEveryBlockingWriteIsCoveredByASync pins that no wakeup releases a
// waiter unsynced. Each of 500 sequential rounds writes and then reads: the
// read's fetch blocks, its announce does not, so the stripe is left dirty
// and the tick — its Interval shorter than one commit — forces an fdatasync
// that the next blocking record often arrives during. The tick and the
// append notification are then both ready, and the two drain the blocking
// records' batches interleaved. Every blocking operation must still return
// only after an fdatasync of its own batch, so the sync count moves across
// each one.
func TestEveryBlockingWriteIsCoveredByASync(t *testing.T) {
	w, _, st := openWAL(t, t.TempDir(), Options{Policy: SyncAlways, Interval: 20 * time.Microsecond, Stripes: 1})
	defer w.Close()
	obj, err := st.Open("covered", store.Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	covered := func(what string, k int, op func() error) {
		t.Helper()
		before := w.Stats().Syncs
		if err := op(); err != nil {
			t.Fatalf("%s %d: %v", what, k, err)
		}
		if after := w.Stats().Syncs; after <= before {
			t.Fatalf("%s %d returned with no fdatasync after it: syncs %d -> %d", what, k, before, after)
		}
	}
	for k := range 500 {
		covered("Write", k, func() error { return obj.Write(uint64(k + 1)) })
		covered("Read", k, func() error { _, err := obj.Read(k % testReaders); return err })
	}
}

// TestCloseRacingBlockedWriters closes the WAL under eight writers, some
// blocked on their fdatasync and some appending. Every Write must return —
// nil or the closed error — and every Write that returned nil must be
// durable: each writer writes rising values to its own register and stops at
// its first error, so after reopen the register holds exactly its last
// acknowledged value. One writer calls Close itself, right after a commit
// released it, so the others' records are often queued when the loop sees
// the stop; twenty rounds make that certain. No goroutine of the WAL may
// outlive Close.
func TestCloseRacingBlockedWriters(t *testing.T) {
	const writers, rounds = 8, 20
	baseline := runtime.NumGoroutine()
	for round := range rounds {
		dir := t.TempDir()
		w, _, st := openWAL(t, dir, Options{Policy: SyncAlways, Stripes: 1})
		names := make([]string, writers)
		objs := make([]*store.Object[uint64], writers)
		for i := range objs {
			names[i] = fmt.Sprintf("racer-%d", i)
			var err error
			if objs[i], err = st.Open(names[i], store.Register); err != nil {
				t.Fatalf("Open: %v", err)
			}
		}
		acked := make([]uint64, writers)
		closed := make(chan error, 1)
		var wg sync.WaitGroup
		for i := range objs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for v := uint64(1); v <= 1_000_000; v++ {
					if objs[i].Write(v) != nil {
						return
					}
					acked[i] = v
					if i == 0 && v == 25 {
						closed <- w.Close()
					}
				}
			}()
		}
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: a Write racing Close never returned", round)
		}
		if err := <-closed; err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}

		w2, _, st2 := openWAL(t, dir, Options{Policy: SyncAlways})
		for i, name := range names {
			got, err := st2.Read(name, 0)
			if err != nil {
				t.Fatalf("round %d: recovered Read(%s): %v", round, name, err)
			}
			if got != acked[i] {
				t.Errorf("round %d: %s recovered %d, last acknowledged write was %d", round, name, got, acked[i])
			}
		}
		if err := w2.Close(); err != nil {
			t.Fatalf("round %d: Close after reopen: %v", round, err)
		}
	}

	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}
