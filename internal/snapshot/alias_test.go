package snapshot_test

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

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
// handle keeps (the auditor's retained views change under it), and if Afek's
// embedded view is (a scanner on the moved-twice path copies a view its owner
// is already overwriting) — which is why the test insists that the borrow
// path was taken.
func TestPublishedViewsNeverAliasScratch(t *testing.T) {
	const (
		n      = 4
		m      = 2
		per    = 5000
		rounds = 200 // one or two do on two CPUs; see the end of the loop
	)
	type retained struct {
		reader   int
		view, at []uint64 // the view as handed out (shared for audits), and its content then
	}
	for round := 0; ; round++ {
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
			u, err := reg.Updater(i, otp.NewSeededNonces(uint64(round*n+i), uint8(i)))
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
					t.Fatalf("round %d: a view handed to %d was %v and is now %v", round, r.reader, r.at, r.view)
				}
				var after, before int64 = 0, 1 << 62
				for i, k := range r.at {
					if k > per {
						t.Fatalf("round %d: view %v of %d holds a value component %d never took", round, r.at, r.reader, i)
					}
					after = max(after, start[i][k])
					before = min(before, end[i][k+1])
				}
				if after >= before {
					t.Fatalf("round %d: view %v of %d is no state of the object: update %d of some component had ended before another's began", round, r.at, r.reader, before)
				}
			}
		}
		// Components only grow, so a scanner's kept views are distinct
		// and the audit must hold exactly them.
		if scans := len(slices.Concat(kept[:m]...)); len(kept[m]) != scans {
			t.Fatalf("round %d: the auditor retained %d views, the scanners %d", round, len(kept[m]), scans)
		}
		if snapshot.Borrows(reg) > 0 {
			return
		}
		// A scan of a few dozen nanoseconds sees one component move twice
		// only if its thread stalls while another updater's runs on: a
		// matter of a few per 10^5 updates with two CPUs, and of never
		// with one, where goroutines interleave every 10 ms.
		if runtime.GOMAXPROCS(0) == 1 {
			t.Skip("one CPU: no scan can be overtaken twice, the borrow path is out of reach")
		}
		if round == rounds {
			t.Fatalf("no scan took the moved-twice borrow path in %d rounds of %d updates", rounds, n*per)
		}
	}
}
