package persist

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"auditreg/store"
)

// swapSync replaces the segment data sync for the rest of the test. Install
// it before opening the WAL: the stripes read it on every batch sync.
func swapSync(t *testing.T, fn func(*os.File) error) {
	t.Helper()
	old := syncData
	syncData = fn
	t.Cleanup(func() { syncData = old })
}

// openObjects opens one register per name.
func openObjects(t *testing.T, st *store.Store[uint64], names ...string) []*store.Object[uint64] {
	t.Helper()
	objs := make([]*store.Object[uint64], len(names))
	for i, name := range names {
		var err error
		if objs[i], err = st.Open(name, store.Register); err != nil {
			t.Fatalf("Open(%s): %v", name, err)
		}
	}
	return objs
}

// TestFailedSyncFailsLaterBatches pins that verdicts follow write order. Batch
// n's fdatasync fails, and returns only after batch n+1's — written and
// synced beside it on the same stripe — has succeeded, and after batch n+1's
// Write has returned or had 50 ms to. The success says nothing of batch n's
// lost bytes, so batch n+1 must get the failure too, the WAL must be
// sticky-failed, and nothing later may be acknowledged.
func TestFailedSyncFailsLaterBatches(t *testing.T) {
	var armed atomic.Bool
	var calls atomic.Int64
	firstIn, secondOut, bDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	swapSync(t, func(f *os.File) error {
		if !armed.Load() {
			return fdatasync(f)
		}
		switch calls.Add(1) {
		case 1: // batch n
			close(firstIn)
			<-secondOut
			select { // a verdict released out of order returns meanwhile
			case <-bDone:
			case <-time.After(50 * time.Millisecond):
			}
			return syscall.EIO
		case 2: // batch n+1
			err := fdatasync(f)
			close(secondOut)
			return err
		}
		return fdatasync(f)
	})
	w, _, st := openWAL(t, t.TempDir(), Options{Policy: SyncAlways, Interval: time.Hour, Stripes: 1})
	objs := openObjects(t, st, "order-a", "order-b", "order-c")

	armed.Store(true)
	errA := make(chan error, 1)
	go func() { errA <- objs[0].Write(1) }()
	<-firstIn // batch n is written and its fdatasync in flight
	errB := objs[1].Write(1)
	close(bDone)
	if err := <-errA; !errors.Is(err, syscall.EIO) {
		t.Fatalf("batch n: Write = %v, want its fdatasync's EIO", err)
	}
	if !errors.Is(errB, syscall.EIO) {
		t.Fatalf("batch n+1: Write = %v after batch n failed, want the same failure", errB)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d fdatasyncs, want batch n's and n+1's", n)
	}
	if err := w.err(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("WAL error = %v, want the sticky failure", err)
	}
	if err := objs[2].Write(1); err == nil {
		t.Fatal("a write after the failure was acknowledged")
	}
	if err := w.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync = %v, want the sticky failure", err)
	}
	if err := w.Close(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Close = %v, want the sticky failure", err)
	}
}

// TestAtMostTwoSyncsInFlight pins the overlap and its bound: with eight
// writers on one stripe and every fdatasync slowed, two syncs are in flight
// at once — and never three.
func TestAtMostTwoSyncsInFlight(t *testing.T) {
	var inflight, peak atomic.Int64
	swapSync(t, func(f *os.File) error {
		n := inflight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(300 * time.Microsecond)
		err := fdatasync(f)
		inflight.Add(-1)
		return err
	})
	w, _, st := openWAL(t, t.TempDir(), Options{Policy: SyncAlways, Stripes: 1})
	objs := openObjects(t, st, "fl-0", "fl-1", "fl-2", "fl-3", "fl-4", "fl-5", "fl-6", "fl-7")
	var wg sync.WaitGroup
	for _, obj := range objs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range uint64(40) {
				if err := obj.Write(v + 1); err != nil {
					t.Errorf("Write: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if p := peak.Load(); p != 2 {
		t.Fatalf("at most %d fdatasyncs were in flight on one stripe, want exactly 2", p)
	}
}

// TestBarriersRacingWaiterCommits races Sync, Snapshot (its rotate) and,
// last, Close against writers committing their own batches, with every
// fdatasync slowed so that two are usually in flight when a barrier comes;
// small segments make appends rotate too. Three things must hold: no write
// is acknowledged before an fdatasync begun after the Write call has
// succeeded; no fdatasync finds its file closed under it (every barrier and
// rotation waits out the syncs in flight); and after reopening, every
// writer's register holds its last acknowledged value.
func TestBarriersRacingWaiterCommits(t *testing.T) {
	const writers, rounds = 4, 4
	var began, doneMax atomic.Uint64
	var closedUnder atomic.Int64
	swapSync(t, func(f *os.File) error {
		seq := began.Add(1)
		time.Sleep(200 * time.Microsecond)
		if err := fdatasync(f); err != nil {
			closedUnder.Add(1)
			return err
		}
		for d := doneMax.Load(); seq > d && !doneMax.CompareAndSwap(d, seq); d = doneMax.Load() {
		}
		return nil
	})
	for round := range rounds {
		dir := t.TempDir()
		w, _, st := openWAL(t, dir, Options{Policy: SyncAlways, Stripes: 1, SegmentBytes: 4 << 10})
		names := make([]string, writers)
		for i := range names {
			names[i] = fmt.Sprintf("barrier-%d", i)
		}
		objs := openObjects(t, st, names...)
		acked := make([]uint64, writers)
		closed := make(chan error, 1)
		stop := make(chan struct{})
		var once sync.Once
		closeWAL := func() {
			once.Do(func() {
				closed <- w.Close()
				close(stop)
			})
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // the barriers
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := w.Sync(); err != nil && !w.closed.Load() {
					t.Errorf("round %d: Sync: %v", round, err)
					return
				}
				if _, err := w.Snapshot(); err != nil && !w.closed.Load() {
					t.Errorf("round %d: Snapshot: %v", round, err)
					return
				}
			}
		}()
		for i := range objs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for v := uint64(1); ; v++ {
					before := began.Load()
					if objs[i].Write(v) != nil {
						return
					}
					if doneMax.Load() <= before {
						t.Errorf("round %d: write %d of %s acknowledged before any fdatasync begun after it", round, v, names[i])
					}
					acked[i] = v
					if i == 0 && v == 60 {
						closeWAL()
					}
				}
			}()
		}
		wg.Wait()
		closeWAL() // in case writer 0 failed first
		if err := <-closed; err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
		if n := closedUnder.Load(); n > 0 {
			t.Fatalf("round %d: %d fdatasyncs failed under a barrier (a file closed while its sync was in flight)", round, n)
		}
		w2, _, st2 := openWAL(t, dir, Options{Policy: SyncAlways})
		for i, name := range names {
			if got, err := st2.Read(name, 0); err != nil || got != acked[i] {
				t.Errorf("round %d: %s recovered %d (%v), last acknowledged write was %d", round, name, got, err, acked[i])
			}
		}
		if err := w2.Close(); err != nil {
			t.Fatalf("round %d: Close after reopen: %v", round, err)
		}
	}
}
