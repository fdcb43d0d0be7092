package snapshot_test

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"auditreg/internal/core"
	"auditreg/internal/otp"
	"auditreg/internal/probe"
	"auditreg/internal/snapshot"
	"auditreg/internal/spec"
	"auditreg/internal/unbounded"
)

func newAuditableSnap(t testing.TB, n, m int, initial uint64, opts ...snapshot.AuditableOption[uint64]) *snapshot.Auditable[uint64] {
	t.Helper()
	pads, err := otp.NewKeyedPads(otp.KeyFromSeed(11), m)
	if err != nil {
		t.Fatalf("NewKeyedPads: %v", err)
	}
	reg, err := snapshot.NewAuditable(n, m, initial, pads, opts...)
	if err != nil {
		t.Fatalf("NewAuditable: %v", err)
	}
	return reg
}

func equalViews(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAuditableSnapshotValidation(t *testing.T) {
	t.Parallel()
	pads, _ := otp.NewKeyedPads(otp.KeyFromSeed(1), 2)
	if _, err := snapshot.NewAuditable[uint64](0, 2, 0, pads); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := snapshot.NewAuditable[uint64](2, 0, 0, pads); err == nil {
		t.Error("m=0 accepted")
	}
	reg := newAuditableSnap(t, 2, 2, 0)
	if _, err := reg.Updater(2, otp.NewSeededNonces(1, 1)); err == nil {
		t.Error("out-of-range updater accepted")
	}
	if _, err := reg.Scanner(2); err == nil {
		t.Error("out-of-range scanner accepted")
	}
}

func TestAuditableSnapshotBasics(t *testing.T) {
	t.Parallel()
	for _, locked := range []bool{false, true} {
		name := "afek"
		var opts []snapshot.AuditableOption[uint64]
		if locked {
			name = "locked"
			opts = append(opts, snapshot.WithLockedStore[uint64]())
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			reg := newAuditableSnap(t, 3, 2, 0, opts...)
			u0, err := reg.Updater(0, otp.NewSeededNonces(1, 10))
			if err != nil {
				t.Fatalf("Updater: %v", err)
			}
			u2, err := reg.Updater(2, otp.NewSeededNonces(2, 12))
			if err != nil {
				t.Fatalf("Updater: %v", err)
			}
			sc, err := reg.Scanner(0)
			if err != nil {
				t.Fatalf("Scanner: %v", err)
			}

			if got := sc.Scan(); !equalViews(got, []uint64{0, 0, 0}) {
				t.Fatalf("initial scan = %v", got)
			}
			if err := u0.Update(5); err != nil {
				t.Fatalf("Update: %v", err)
			}
			if err := u2.Update(7); err != nil {
				t.Fatalf("Update: %v", err)
			}
			if got := sc.Scan(); !equalViews(got, []uint64{5, 0, 7}) {
				t.Fatalf("scan = %v, want [5 0 7]", got)
			}

			entries, err := reg.Auditor().Audit()
			if err != nil {
				t.Fatalf("Audit: %v", err)
			}
			if !snapshot.ContainsView(entries, 0, []uint64{0, 0, 0}) {
				t.Fatalf("audit %v missing initial view of scanner 0", entries)
			}
			if !snapshot.ContainsView(entries, 0, []uint64{5, 0, 7}) {
				t.Fatalf("audit %v missing second view of scanner 0", entries)
			}
			if snapshot.ContainsView(entries, 1, []uint64{0, 0, 0}) {
				t.Fatalf("audit reports scanner 1 which never scanned: %v", entries)
			}
		})
	}
}

// TestQuickAuditableSnapshotMatchesSpec replays random sequential scripts
// against the implementation and the sequential specification.
func TestQuickAuditableSnapshotMatchesSpec(t *testing.T) {
	t.Parallel()
	type op struct {
		Kind    uint8 // mod 3: 0 scan, 1 update, 2 audit
		Proc    uint8
		Payload uint16
	}
	f := func(ops []op, seed uint64) bool {
		const (
			n = 3
			m = 3
		)
		pads, err := otp.NewKeyedPads(otp.KeyFromSeed(seed), m)
		if err != nil {
			return false
		}
		reg, err := snapshot.NewAuditable[uint64](n, m, 0, pads)
		if err != nil {
			return false
		}
		oracle := spec.NewAuditableSnapshot[uint64](n, 0)

		updaters := make([]*snapshot.SnapUpdater[uint64], n)
		for i := range updaters {
			u, err := reg.Updater(i, otp.NewSeededNonces(seed+uint64(i), uint8(i)))
			if err != nil {
				return false
			}
			updaters[i] = u
		}
		scanners := make([]*snapshot.SnapScanner[uint64], m)
		for j := range scanners {
			sc, err := reg.Scanner(j)
			if err != nil {
				return false
			}
			scanners[j] = sc
		}
		auditor := reg.Auditor()

		for _, o := range ops {
			switch o.Kind % 3 {
			case 0:
				j := int(o.Proc) % m
				got := scanners[j].Scan()
				want := oracle.Scan(j)
				if !equalViews(got, want) {
					return false
				}
			case 1:
				i := int(o.Proc) % n
				if err := updaters[i].Update(uint64(o.Payload)); err != nil {
					return false
				}
				oracle.Update(i, uint64(o.Payload))
			case 2:
				got, err := auditor.Audit()
				if err != nil {
					return false
				}
				want := oracle.Audit()
				if len(got) != len(want) {
					return false
				}
				for _, w := range want {
					if !snapshot.ContainsView(got, w.Reader, w.View) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestAuditableSnapshotConcurrent checks component-wise monotonicity of
// scanned views, scan containment of completed updates, and quiescent audit
// equivalence.
func TestAuditableSnapshotConcurrent(t *testing.T) {
	t.Parallel()
	const (
		n   = 3
		m   = 4
		per = 120
	)
	reg := newAuditableSnap(t, n, m, 0)

	var wg sync.WaitGroup
	type viewKey [n]uint64
	returned := make([]map[viewKey]struct{}, m)

	for i := 0; i < n; i++ {
		u, err := reg.Updater(i, otp.NewSeededNonces(uint64(i)+100, uint8(i)))
		if err != nil {
			t.Fatalf("Updater: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= per; k++ {
				if err := u.Update(uint64(k)); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}()
	}
	for j := 0; j < m; j++ {
		j := j
		returned[j] = make(map[viewKey]struct{})
		sc, err := reg.Scanner(j)
		if err != nil {
			t.Fatalf("Scanner: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := make([]uint64, n)
			for k := 0; k < per; k++ {
				got := sc.Scan()
				var key viewKey
				for i, v := range got {
					if v < prev[i] {
						t.Errorf("scanner %d: component %d regressed %d -> %d", j, i, prev[i], v)
						return
					}
					prev[i] = v
					key[i] = v
				}
				returned[j][key] = struct{}{}
			}
		}()
	}
	wg.Wait()

	// Quiescent audit equivalence.
	entries, err := reg.Auditor().Audit()
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	for j := 0; j < m; j++ {
		for key := range returned[j] {
			if !snapshot.ContainsView(entries, j, key[:]) {
				t.Fatalf("scan (%d, %v) returned but not audited", j, key)
			}
		}
	}
	for _, e := range entries {
		var key viewKey
		copy(key[:], e.View)
		if _, ok := returned[e.Reader][key]; !ok {
			t.Fatalf("audited view (%d, %v) was never scanned", e.Reader, e.View)
		}
	}

	// Final scan shows every completed update.
	sc, _ := reg.Scanner(0)
	final := sc.Scan()
	for i, v := range final {
		if v != per {
			t.Fatalf("component %d = %d at quiescence, want %d", i, v, per)
		}
	}
}

// TestIncrementalAuditEqualsRebuild drives seeded random update/scan/audit
// interleavings and holds the tailing auditor, at every audit, to the set a
// brand-new auditor rebuilds from the whole history and to the set the test
// observed itself. Components take few distinct values, so the same content
// keeps coming back under new version numbers — which the max register's
// report lists as distinct entries and the snapshot's must not — and the
// scripts are long enough for the hash index to grow several times. The
// tailing auditor's list must also equal, element by element, the list
// stripped from a max register auditor's cumulative report, while the max
// register auditor inside it keeps no set of its own.
func TestIncrementalAuditEqualsRebuild(t *testing.T) {
	t.Parallel()
	const n, m, steps = 3, 4, 600
	for _, seed := range []int64{1, 2, 3, time.Now().UnixNano()} {
		rng := rand.New(rand.NewSource(seed))
		reg := newAuditableSnap(t, n, m, 0, snapshot.WithSnapshotCapacity[uint64](steps+1))
		updaters := make([]*snapshot.SnapUpdater[uint64], n)
		for i := range updaters {
			updaters[i], _ = reg.Updater(i, otp.NewSeededNonces(uint64(seed)+uint64(i), uint8(i)))
		}
		scanners := make([]*snapshot.SnapScanner[uint64], m)
		for j := range scanners {
			scanners[j], _ = reg.Scanner(j)
		}
		type seen struct {
			reader int
			view   [n]uint64
		}
		observed := map[seen]bool{}
		tail, ref := reg.Auditor(), snapshot.ReferenceAuditor(reg)
		for step := 0; step < steps; step++ {
			switch r := rng.Intn(10); {
			case r < 4:
				if err := updaters[rng.Intn(n)].Update(uint64(rng.Intn(2))); err != nil {
					t.Fatalf("seed %d step %d: Update: %v", seed, step, err)
				}
			case r < 8:
				j := rng.Intn(m)
				observed[seen{j, [n]uint64(scanners[j].Scan())}] = true
			default:
				got, err := tail.Audit()
				if err != nil {
					t.Fatalf("seed %d step %d: Audit: %v", seed, step, err)
				}
				rebuilt, err := reg.Auditor().Audit()
				if err != nil {
					t.Fatalf("seed %d step %d: fresh Audit: %v", seed, step, err)
				}
				want, err := ref()
				if err != nil {
					t.Fatalf("seed %d step %d: reference Audit: %v", seed, step, err)
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d: tail has %d entries, reference %d", seed, step, len(got), len(want))
				}
				for i := range want {
					if got[i].Reader != want[i].Reader || &got[i].View[0] != &want[i].View[0] {
						t.Fatalf("seed %d step %d: entry %d is (%d, %v), reference (%d, %v)", seed, step, i, got[i].Reader, got[i].View, want[i].Reader, want[i].View)
					}
				}
				if pairs, slots := snapshot.MHeld(tail); pairs != 0 || slots != 0 {
					t.Fatalf("seed %d step %d: the max register auditor holds %d pairs and %d index slots, want none", seed, step, pairs, slots)
				}
				if len(got) != len(observed) || len(rebuilt) != len(observed) {
					t.Fatalf("seed %d step %d: tail has %d entries, rebuild %d, observed %d", seed, step, len(got), len(rebuilt), len(observed))
				}
				for o := range observed {
					if !snapshot.ContainsView(got, o.reader, o.view[:]) || !snapshot.ContainsView(rebuilt, o.reader, o.view[:]) {
						t.Fatalf("seed %d step %d: observed (%d, %v) missing: tail %v, rebuild %v", seed, step, o.reader, o.view, got, rebuilt)
					}
				}
			}
		}
		if len(observed) < 20 {
			t.Fatalf("seed %d: only %d distinct views observed; the script is too short to grow the index", seed, len(observed))
		}
	}
}

// TestScanFindsEveryPublishedVersion holds the view log to its one invariant:
// a version number read from M resolves to the view published under it, and
// that view never changes. Updater i writes its own update count, so a view
// is the state of S whose version number is the sum of its components. Every
// scan and every audit row, while n updaters race, must resolve its version
// number to a view of that sum; every process that resolves one version must
// find the same view, the one the log holds at the end; and the views, in
// version order, must grow component-wise, as the states of S do. Updaters
// yield at every step, so that two of them often scan the same state of S and
// publish the same version number. A watcher reads the log directly, not
// through M: it sees a slot the moment it is set, before its version number
// can reach M, so a second store to the slot shows.
func TestScanFindsEveryPublishedVersion(t *testing.T) {
	t.Parallel()
	const n, m, per = 4, 3, 400
	reg := newAuditableSnap(t, n, m, 0, snapshot.WithSnapshotCapacity[uint64](n*per+1))

	// records[p] is process p's view of each version it resolved: scanners
	// 0..m-1, then the auditor, then the watcher.
	records := make([]map[uint64]*uint64, m+2)
	check := func(p int, vn uint64, view []uint64) bool {
		var sum uint64
		for _, x := range view {
			sum += x
		}
		if len(view) != n || sum != vn {
			t.Errorf("process %d: version %d resolved to %v", p, vn, view)
			return false
		}
		if q, ok := records[p][vn]; ok && q != &view[0] {
			t.Errorf("process %d: version %d resolved to two views", p, vn)
			return false
		}
		records[p][vn] = &view[0]
		return true
	}

	var updaters, others sync.WaitGroup
	done := make(chan struct{})
	// spin calls f, yielding in between, until f fails or the updaters are
	// done.
	spin := func(f func() bool) {
		others.Add(1)
		go func() {
			defer others.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if !f() {
					return
				}
				runtime.Gosched()
			}
		}()
	}
	yield := core.WithProbe(func(probe.Event) { runtime.Gosched() })
	for i := 0; i < n; i++ {
		u, err := reg.Updater(i, otp.NewSeededNonces(uint64(i)+1, uint8(i)), yield)
		if err != nil {
			t.Fatalf("Updater: %v", err)
		}
		updaters.Add(1)
		go func() {
			defer updaters.Done()
			for k := uint64(1); k <= per; k++ {
				if err := u.Update(k); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}()
	}
	for j := range records {
		records[j] = map[uint64]*uint64{}
	}
	for j := 0; j < m; j++ {
		sc, err := reg.Scanner(j)
		if err != nil {
			t.Fatalf("Scanner: %v", err)
		}
		spin(func() bool {
			got := sc.Scan()
			vn, view := snapshot.LastScan(sc)
			return check(j, vn, view) && equalViews(got, view)
		})
	}
	audit := snapshot.AuditVersions(reg, func(vn uint64, view []uint64, _ uint64) { check(m, vn, view) })
	spin(func() bool {
		err := audit()
		if err != nil {
			t.Errorf("audit: %v", err)
		}
		return err == nil
	})
	top := uint64(1) // the highest version the watcher has seen published
	spin(func() bool {
		for vn := top - min(top-1, 8); vn <= top+8; vn++ {
			if p := snapshot.Published(reg, vn); p != nil {
				if q, ok := records[m+1][vn]; ok && q != p {
					t.Errorf("watcher: the view under version %d changed", vn)
					return false
				}
				records[m+1][vn], top = p, max(top, vn)
			}
		}
		return true
	})
	updaters.Wait()
	close(done)
	others.Wait()

	all := map[uint64]*uint64{}
	for _, r := range records {
		for vn, p := range r {
			if q, ok := all[vn]; ok && q != p {
				t.Fatalf("version %d resolved to two views by two processes", vn)
			}
			all[vn] = p
		}
	}
	vns := make([]uint64, 0, len(all))
	for vn, p := range all {
		if view := snapshot.ViewAt(reg, vn); &view[0] != p {
			t.Fatalf("version %d: the log holds %v, not the view it was resolved to", vn, view)
		}
		vns = append(vns, vn)
	}
	slices.Sort(vns)
	for k := 1; k < len(vns); k++ {
		prev, next := snapshot.ViewAt(reg, vns[k-1]), snapshot.ViewAt(reg, vns[k])
		for i := range next {
			if next[i] < prev[i] {
				t.Fatalf("version %d holds %v after version %d holds %v", vns[k], next, vns[k-1], prev)
			}
		}
	}
	if len(records[m+1]) < per {
		t.Fatalf("the watcher saw %d versions published, want at least %d", len(records[m+1]), per)
	}
}

// TestViewLogNeverOverflowsFirst races updaters on a short history until it
// overflows: the view log is sized from the history, so the error every
// updater gets is the history's, never the log's.
func TestViewLogNeverOverflowsFirst(t *testing.T) {
	t.Parallel()
	const n = 4
	reg := newAuditableSnap(t, n, 2, 0, snapshot.WithSnapshotCapacity[uint64](64))
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		u, err := reg.Updater(i, otp.NewSeededNonces(uint64(i)+1, uint8(i)))
		if err != nil {
			t.Fatalf("Updater: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := uint64(1); errs[i] == nil; k++ {
				errs[i] = u.Update(k)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if !strings.HasPrefix(err.Error(), "unbounded:") {
			t.Errorf("updater %d: %v, want the history's overflow", i, err)
		}
	}
}

// TestRefusedUpdateLeavesSUntouched fills a snapshot's history: the update
// past it is refused before S sees it, so S's component keeps the last
// accepted value and tag, and a fresh handle resumes from that tag and is
// refused the same way.
func TestRefusedUpdateLeavesSUntouched(t *testing.T) {
	t.Parallel()
	reg := newAuditableSnap(t, 2, 2, 0, snapshot.WithSnapshotCapacity[uint64](1024))
	u, err := reg.Updater(0, otp.NewSeededNonces(1, 0))
	if err != nil {
		t.Fatalf("Updater: %v", err)
	}
	var accepted uint64
	for k := uint64(1); ; k++ {
		err := u.Update(10 * k)
		if err != nil {
			if !errors.Is(err, unbounded.ErrCapacity) {
				t.Fatalf("update %d: %v, want ErrCapacity", k, err)
			}
			break
		}
		if accepted = k; k > 4096 {
			t.Fatal("a 1,024-row history took 4,096 updates")
		}
	}
	check := func(when string) {
		t.Helper()
		if sn, val := snapshot.Component(reg, 0); sn != accepted || val != 10*accepted {
			t.Fatalf("%s: S holds (sn %d, %d), want (sn %d, %d)", when, sn, val, accepted, 10*accepted)
		}
	}
	check("after the refused update")
	if sn := snapshot.UpdaterSeq(u); sn != accepted {
		t.Fatalf("the refused handle's sn = %d, want %d", sn, accepted)
	}
	fresh, err := reg.Updater(0, otp.NewSeededNonces(2, 0))
	if err != nil {
		t.Fatalf("Updater: %v", err)
	}
	if sn := snapshot.UpdaterSeq(fresh); sn != accepted {
		t.Fatalf("a fresh handle resumes at sn %d, want %d", sn, accepted)
	}
	if err := fresh.Update(1); !errors.Is(err, unbounded.ErrCapacity) {
		t.Fatalf("update through a fresh handle: %v, want ErrCapacity", err)
	}
	check("after a fresh handle's refused update")
	sc, err := reg.Scanner(0)
	if err != nil {
		t.Fatalf("Scanner: %v", err)
	}
	if got := sc.Scan(); !slices.Equal(got, []uint64{10 * accepted, 0}) {
		t.Fatalf("scan = %v, want [%d 0]", got, 10*accepted)
	}
}

// TestViewsAcrossLogBlockEdges publishes versions 1 to 1,030, across the view
// log's block edges at 512 and 1,024: every version must resolve to its own
// view, nothing past the last may be published, and scans at the edges must
// be audited with exactly their views.
func TestViewsAcrossLogBlockEdges(t *testing.T) {
	t.Parallel()
	reg := newAuditableSnap(t, 2, 1, 0)
	u, err := reg.Updater(0, otp.NewSeededNonces(1, 0))
	if err != nil {
		t.Fatalf("Updater: %v", err)
	}
	sc, err := reg.Scanner(0)
	if err != nil {
		t.Fatalf("Scanner: %v", err)
	}
	const last = 1030
	var scanned [][]uint64
	for k := uint64(1); k <= last; k++ {
		if err := u.Update(k); err != nil {
			t.Fatalf("update %d: %v", k, err)
		}
		if slices.Contains([]uint64{511, 512, 513, 1023, 1024, 1025}, k) {
			if v := sc.Scan(); !slices.Equal(v, []uint64{k, 0}) {
				t.Fatalf("scan after update %d = %v", k, v)
			}
			scanned = append(scanned, []uint64{k, 0})
		}
	}
	for vn := uint64(1); vn <= last; vn++ {
		if v := snapshot.ViewAt(reg, vn); !slices.Equal(v, []uint64{vn, 0}) {
			t.Fatalf("version %d resolves to %v", vn, v)
		}
	}
	if snapshot.Published(reg, last+1) != nil {
		t.Fatalf("version %d published before any update made it", last+1)
	}
	got, err := reg.Auditor().Audit()
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if len(got) != len(scanned) {
		t.Fatalf("audit holds %d views, the scanner read %d", len(got), len(scanned))
	}
	for _, v := range scanned {
		if !snapshot.ContainsView(got, 0, v) {
			t.Fatalf("audit misses the scan of %v", v)
		}
	}
}
