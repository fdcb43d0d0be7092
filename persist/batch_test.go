package persist

import (
	"sync"
	"testing"
	"time"

	"auditreg/store"
)

// TestGroupCommitAbsorbsConcurrentMutators pins the adaptive commit window:
// many goroutines writing under SyncAlways must share fsyncs — far fewer
// syncs than records — and the batch-size histogram must record multi-record
// syncs, while every write still blocks until stable. Stripes is pinned to 1
// because the window is per stripe: left at its GOMAXPROCS default, the eight
// objects hash onto as many stripes as the box has CPUs, and on a 2-CPU box
// the "8 concurrent blocked writers" below are about 4 per window.
func TestGroupCommitAbsorbsConcurrentMutators(t *testing.T) {
	dir := t.TempDir()
	w, _, st := openWAL(t, dir, Options{Policy: SyncAlways, BatchDelay: 2 * time.Millisecond, Stripes: 1})
	const writers = 8
	const perWriter = 50
	objs := make([]*store.Object[uint64], writers)
	for i := range objs {
		var err error
		if objs[i], err = st.Open("batch-"+string(rune('a'+i)), store.Register); err != nil {
			t.Fatalf("Open: %v", err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perWriter; k++ {
				if err := objs[i].Write(uint64(k + 1)); err != nil {
					t.Errorf("Write: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	stats := w.Stats()
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if stats.Records < writers*perWriter {
		t.Fatalf("recorded %d records, want >= %d", stats.Records, writers*perWriter)
	}
	// With 8 concurrent blocked writers the window must coalesce: demand
	// strictly better than one fsync per two records (the pre-adaptive
	// behavior hovered at ~2 records/sync under much higher concurrency).
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

// TestUncontendedWritePaysNoWindow pins the adaptive half of the window: a
// single blocking mutator (waiters == batch) must commit without waiting out
// BatchDelay. With a deliberately enormous delay, 20 sequential writes only
// finish in reasonable time if the window closes immediately.
func TestUncontendedWritePaysNoWindow(t *testing.T) {
	dir := t.TempDir()
	w, _, st := openWAL(t, dir, Options{Policy: SyncAlways, BatchDelay: time.Second})
	obj, err := st.Open("solo", store.Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	start := time.Now()
	for k := 0; k < 20; k++ {
		if err := obj.Write(uint64(k + 1)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	elapsed := time.Since(start)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// 20 windows of 1s would take 20s; even one would take 1s. Allow wide
	// slack for slow CI disks — the point is the order of magnitude.
	if elapsed > 5*time.Second {
		t.Fatalf("20 uncontended writes took %v; the commit window is not closing early", elapsed)
	}
}

// TestSyncAlwaysAnnouncesDoNotSync pins that announce records — pure
// helping, journaled non-blocking — do not trigger fsyncs of their own under
// SyncAlways: after a read's fetch has synced, its pipelined announce leaves
// the sync count alone (the periodic tick may flush it later).
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
	base := w.Stats().Syncs
	deadline := time.Now().Add(time.Second)
	for w.Stats().Records < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond) // let the writer consume the announce
	}
	if got := w.Stats().Syncs; got != base {
		t.Fatalf("announce record triggered a sync: %d -> %d", base, got)
	}
	// The announce still becomes durable on close (drain forces a sync).
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
