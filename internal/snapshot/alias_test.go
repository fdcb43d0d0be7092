package snapshot_test

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"auditreg/internal/otp"
	"auditreg/internal/snapshot"
)

// TestPublishedViewsNeverAliasScratch: the updater handles reuse their scans'
// working memory, so nothing that outlives an update may live in it. Scanners
// and an auditor retain every view they are handed while all n updaters run;
// at the end each retained view must be byte for byte what it was when
// obtained, and must be a state of the per-component histories. Component i
// counts 1, 2, 3, ... and every update is bracketed by two ticks of a shared
// clock, so a view v is such a state exactly when some instant lies after the
// start of update v[i] and before the end of update v[i]+1 for every i.
//
// Run under -race this fails if M's stripped view is built in a buffer the
// handle keeps: the auditor's retained views change under it. Whether a scan
// here takes Afek's moved-twice path is up to the scheduler;
// TestMovedTwiceScanBorrowsAFreshView forces it.
func TestPublishedViewsNeverAliasScratch(t *testing.T) {
	const (
		n   = 4
		m   = 2
		per = 5000
	)
	type retained struct {
		reader   int
		view, at []uint64 // the view as handed out (shared for audits), and its content then
	}
	reg := newAuditableSnap(t, n, m, 0)
	var clock atomic.Int64
	var start, end [n][]int64 // [i][k]: ticks around component i's k-th update
	for i := range end {
		start[i], end[i] = make([]int64, per+2), make([]int64, per+2)
		end[i][per+1] = 1 << 62 // the update after the last never ends
	}

	// Scanners stop once the updaters have; the auditor stops once the
	// scanners have, so its last audit holds every scan.
	var updaters, scanners, auditor sync.WaitGroup
	var updated, scanned atomic.Bool
	for i := 0; i < n; i++ {
		u, err := reg.Updater(i, otp.NewSeededNonces(uint64(i), uint8(i)))
		if err != nil {
			t.Fatalf("Updater: %v", err)
		}
		updaters.Add(1)
		go func() {
			defer updaters.Done()
			for k := 1; k <= per; k++ {
				start[i][k] = clock.Add(1)
				if err := u.Update(uint64(k)); err != nil {
					t.Errorf("update: %v", err)
					return
				}
				end[i][k] = clock.Add(1)
			}
		}()
	}
	kept := make([][]retained, m+1)
	for j := 0; j < m; j++ {
		sc, err := reg.Scanner(j)
		if err != nil {
			t.Fatalf("Scanner: %v", err)
		}
		scanners.Add(1)
		go func() {
			defer scanners.Done()
			var prev []uint64
			for last := false; !last; {
				last = updated.Load()
				// A silent scan is a second copy of the view
				// already kept; keeping it too shows nothing.
				if v := sc.Scan(); !slices.Equal(v, prev) {
					kept[j] = append(kept[j], retained{reader: j, view: v, at: slices.Clone(v)})
					prev = v
				}
			}
		}()
	}
	auditor.Add(1)
	go func() {
		defer auditor.Done()
		aud := reg.Auditor()
		seen := 0
		for last := false; !last; {
			last = scanned.Load()
			entries, err := aud.Audit()
			if err != nil {
				t.Errorf("audit: %v", err)
				return
			}
			for _, e := range entries[seen:] {
				kept[m] = append(kept[m], retained{reader: e.Reader, view: e.View, at: slices.Clone(e.View)})
			}
			seen = len(entries)
		}
	}()
	updaters.Wait()
	updated.Store(true)
	scanners.Wait()
	scanned.Store(true)
	auditor.Wait()
	if t.Failed() {
		return
	}

	for _, views := range kept {
		for _, r := range views {
			if !slices.Equal(r.view, r.at) {
				t.Fatalf("a view handed to %d was %v and is now %v", r.reader, r.at, r.view)
			}
			var after, before int64 = 0, 1 << 62
			for i, k := range r.at {
				if k > per {
					t.Fatalf("view %v of %d holds a value component %d never took", r.at, r.reader, i)
				}
				after = max(after, start[i][k])
				before = min(before, end[i][k+1])
			}
			if after >= before {
				t.Fatalf("view %v of %d is no state of the object: update %d of some component had ended before another's began", r.at, r.reader, before)
			}
		}
	}
	// Components only grow, so a scanner's kept views are distinct
	// and the audit must hold exactly them.
	if scans := len(slices.Concat(kept[:m]...)); len(kept[m]) != scans {
		t.Fatalf("the auditor retained %d views, the scanners %d", len(kept[m]), scans)
	}
}

// TestMovedTwiceScanBorrowsAFreshView scripts Afek's helping path: updater
// 0's embedded scan is held after each of its collects while updater 1 runs
// an update, so its third collect sees component 1 move twice and it borrows
// the view updater 1 embedded in its second update. Updater 1's third update
// runs while that scan is held after its third collect, with nothing ordering
// the two. Run under -race this fails if Afek's embedded view is built in a
// buffer the handle keeps: the borrower copies a view its owner has since
// overwritten.
func TestMovedTwiceScanBorrowsAFreshView(t *testing.T) {
	reg := newAuditableSnap(t, 2, 1, 0)
	u0, err := reg.Updater(0, otp.NewSeededNonces(1, 0))
	if err != nil {
		t.Fatalf("Updater: %v", err)
	}
	u1, err := reg.Updater(1, otp.NewSeededNonces(2, 1))
	if err != nil {
		t.Fatalf("Updater: %v", err)
	}

	// held counts the collects of updater 0's scan that let an update of
	// component 1 run; step starts that update, done reports the first two
	// complete. The third is waited out by watching updater 1's goroutine
	// exit, which orders nothing.
	var armed atomic.Bool
	held := 0
	step, done, errs := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	base := runtime.NumGoroutine()
	snapshot.OnCollect(reg, func() {
		if !armed.CompareAndSwap(true, false) {
			return // updater 1's scans, or updater 0's past its third collect
		}
		held++
		step <- struct{}{}
		if held < 3 {
			<-done
			armed.Store(true)
			return
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	})
	go func() {
		var err error
		for k := uint64(1); k <= 3; k++ {
			<-step
			if err == nil {
				err = u1.Update(k)
			}
			if k < 3 {
				done <- struct{}{}
			}
		}
		errs <- err
	}()
	armed.Store(true)
	if err := u0.Update(1); err != nil {
		t.Fatalf("update: %v", err)
	}
	if err := <-errs; err != nil {
		t.Fatalf("update: %v", err)
	}
	if held != 3 {
		t.Fatalf("updater 0's scan let %d updates run, want 3", held)
	}
	if b := snapshot.Borrows(reg); b == 0 {
		t.Fatal("no scan took the moved-twice borrow path")
	}
	sc, err := reg.Scanner(0)
	if err != nil {
		t.Fatalf("Scanner: %v", err)
	}
	if got := sc.Scan(); !slices.Equal(got, []uint64{1, 3}) {
		t.Fatalf("scan = %v, want [1 3]", got)
	}
}
