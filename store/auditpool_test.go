package store_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"auditreg/store"
)

// TestPoolMatchesPerObjectAudit is the store-level equivalence proof: under
// mixed concurrent read/write traffic over many objects of all three kinds,
// the batched asynchronous audit pipeline reports exactly the readers that
// effectively read each object — mid-traffic reports contain no false
// positives (every pair also appears in the final from-scratch fold), and
// once traffic quiesces a Flush leaves no false negatives (pool report and
// a fresh full-history fold, FreshAudit, are equal sets).
func TestPoolMatchesPerObjectAudit(t *testing.T) {
	const (
		objectsPerKind = 20
		goroutines     = 8
		opsPerG        = 1200
	)
	st := newTestStore(t)

	kinds := []store.Kind{store.Register, store.MaxRegister, store.Snapshot}
	var names []string
	for _, k := range kinds {
		for i := 0; i < objectsPerKind; i++ {
			name := fmt.Sprintf("%v-%02d", k, i)
			if _, err := st.Open(name, k); err != nil {
				t.Fatalf("Open(%s): %v", name, err)
			}
			names = append(names, name)
		}
	}

	pool, err := st.NewAuditPool(store.WithPoolWorkers(3), store.WithPoolInterval(time.Millisecond))
	if err != nil {
		t.Fatalf("NewAuditPool: %v", err)
	}
	if err := pool.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer pool.Stop()

	// Mid-traffic report snapshots, checked for false positives later.
	var midMu sync.Mutex
	var mid []store.ObjectAudit[uint64]

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; i < opsPerG; i++ {
				name := names[rng.Intn(len(names))]
				obj, _ := st.Lookup(name)
				switch {
				case rng.Intn(100) < 30: // write
					v := uint64(rng.Intn(500))
					if obj.Kind() == store.Snapshot {
						if err := obj.UpdateAt(rng.Intn(obj.Components()), v); err != nil {
							t.Errorf("UpdateAt(%s): %v", name, err)
							return
						}
					} else if err := obj.Write(v); err != nil {
						t.Errorf("Write(%s): %v", name, err)
						return
					}
				default: // read
					if obj.Kind() == store.Snapshot {
						if _, err := obj.Scan(g); err != nil {
							t.Errorf("Scan(%s): %v", name, err)
							return
						}
					} else if _, err := obj.Read(g); err != nil {
						t.Errorf("Read(%s): %v", name, err)
						return
					}
				}
				if i%400 == 399 {
					if rep, ok := pool.Report(name); ok {
						midMu.Lock()
						mid = append(mid, rep)
						midMu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()

	// Traffic has quiesced; one synchronous batch pass advances every
	// cursor past everything.
	if err := pool.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := pool.Err(); err != nil {
		t.Fatalf("pool observed audit error: %v", err)
	}

	ground := map[string]store.ObjectAudit[uint64]{}
	for _, name := range names {
		obj, _ := st.Lookup(name)
		aud, err := store.FreshAudit(obj)
		if err != nil {
			t.Fatalf("FreshAudit(%s): %v", name, err)
		}
		ground[name] = aud
	}

	// No false negatives (and no false positives) after the flush: exact
	// set equality per object.
	for _, name := range names {
		rep, ok := pool.Report(name)
		if !ok {
			t.Fatalf("pool has no report for %s", name)
		}
		if !rep.Same(ground[name]) {
			t.Errorf("pool report for %s disagrees with the from-scratch fold:\npool:   %d pairs\nfresh:  %d pairs",
				name, rep.Len(), ground[name].Len())
		}
	}

	// No false positives mid-traffic: every mid-flight report is a subset
	// of the final from-scratch fold.
	for _, rep := range mid {
		if !rep.Subset(ground[rep.Object]) {
			t.Errorf("mid-traffic report for %s contains pairs absent from the final audit", rep.Object)
		}
	}

	// The merged view covers every object, sorted by name, zero-copy.
	merged := pool.Merged()
	if len(merged) != len(names) {
		t.Fatalf("Merged() has %d objects, want %d", len(merged), len(names))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i-1].Object >= merged[i].Object {
			t.Fatal("Merged() must be sorted by object name")
		}
	}
	if pool.Audited() == 0 || pool.Sweeps() == 0 {
		t.Error("pool counters must reflect background sweeps")
	}
}

// TestPoolFlushWithoutStart exercises pure batch mode: a never-started pool
// audits on demand.
func TestPoolFlushWithoutStart(t *testing.T) {
	st := newTestStore(t)
	if _, err := st.Open("r", store.Register); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := st.Write("r", 3); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := st.Read("r", 5); err != nil {
		t.Fatalf("Read: %v", err)
	}

	pool, err := st.NewAuditPool()
	if err != nil {
		t.Fatalf("NewAuditPool: %v", err)
	}
	if _, ok := pool.Report("r"); ok {
		t.Fatal("report before any flush must be absent")
	}
	if err := pool.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	rep, ok := pool.Report("r")
	if !ok || !rep.Report.Contains(5, 3) {
		t.Fatalf("flushed report = (%v, %v), want to contain (5, 3)", rep.Report, ok)
	}
	pool.Stop() // Stop on a never-started pool is a no-op.
}

// TestPoolCursorIsIncremental checks that successive flushes extend the
// published report rather than restarting it, and that new accesses between
// flushes show up.
func TestPoolCursorIsIncremental(t *testing.T) {
	st := newTestStore(t)
	if _, err := st.Open("r", store.Register); err != nil {
		t.Fatalf("Open: %v", err)
	}
	pool, err := st.NewAuditPool()
	if err != nil {
		t.Fatalf("NewAuditPool: %v", err)
	}

	if err := st.Write("r", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Read("r", 0); err != nil {
		t.Fatal(err)
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	rep1, _ := pool.Report("r")

	if err := st.Write("r", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Read("r", 1); err != nil {
		t.Fatal(err)
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	rep2, _ := pool.Report("r")

	if !rep1.Subset(rep2) {
		t.Error("cumulative pool reports must only grow")
	}
	if !rep2.Report.Contains(0, 1) || !rep2.Report.Contains(1, 2) {
		t.Errorf("second report %v misses expected pairs", rep2.Report)
	}
	obj, _ := st.Lookup("r")
	ground, err := store.FreshAudit(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Same(ground) {
		t.Errorf("incremental report %v != from-scratch fold %v", rep2.Report, ground.Report)
	}
}

// TestPoolRowsTailEqualsFresh drives both register kinds through the one
// read and audit path they share — ReadFetch, Announce, AuditPool.Rows — under
// a seeded schedule, with an auditor that tails (asks only for rows since its
// cursor, three at a time, and keeps the cumulative set itself). After every
// tail step the set must equal what a cold replay from row 0 yields and what a
// from-scratch fold (FreshAudit) reports: tail == fresh, for Register and
// MaxRegister alike.
func TestPoolRowsTailEqualsFresh(t *testing.T) {
	type pair struct {
		reader int
		val    uint64
	}
	for _, kind := range []store.Kind{store.Register, store.MaxRegister} {
		t.Run(kind.String(), func(t *testing.T) {
			st := newTestStore(t)
			obj, err := st.Open("obj", kind)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			pool, err := st.NewAuditPool()
			if err != nil {
				t.Fatalf("NewAuditPool: %v", err)
			}
			// replay pages rows [since, ...) into set and returns the cursor.
			replay := func(fresh bool, since uint64, set map[pair]bool) uint64 {
				for {
					k, next, more, err := pool.Rows("obj", fresh, since, 3, func(val, readers uint64) {
						for j := 0; j < st.Readers(); j++ {
							if readers>>uint(j)&1 == 1 {
								set[pair{j, val}] = true
							}
						}
					})
					if err != nil {
						t.Fatalf("Rows(since=%d): %v", since, err)
					}
					if k != kind {
						t.Fatalf("Rows reports kind %v, want %v", k, kind)
					}
					if !more {
						return next
					}
					fresh, since = false, next
				}
			}

			rng := rand.New(rand.NewSource(20))
			tail, cursor := map[pair]bool{}, uint64(0)
			for step := 0; step < 3000; step++ { // about 1,200 writes: past a chunk of rows
				switch r := rng.Intn(10); {
				case r < 4:
					if err := obj.Write(uint64(rng.Intn(50))); err != nil {
						t.Fatalf("Write: %v", err)
					}
				case r < 9:
					reader := rng.Intn(st.Readers())
					_, seq, fetched, err := obj.ReadFetch(reader)
					if err != nil {
						t.Fatalf("ReadFetch: %v", err)
					}
					if fetched && rng.Intn(4) > 0 { // some announces are dropped
						if err := obj.Announce(reader, seq); err != nil {
							t.Fatalf("Announce: %v", err)
						}
					}
				default:
					cursor = replay(true, cursor, tail)
					cold := map[pair]bool{}
					replay(false, 0, cold)
					ground, err := store.FreshAudit(obj)
					if err != nil {
						t.Fatalf("FreshAudit: %v", err)
					}
					if len(tail) != len(cold) || len(tail) != ground.Report.Len() {
						t.Fatalf("step %d: tail has %d pairs, cold replay %d, fresh audit %d", step, len(tail), len(cold), ground.Report.Len())
					}
					for p := range tail {
						if !cold[p] || !ground.Report.Contains(p.reader, p.val) {
							t.Fatalf("step %d: tail pair %v missing from cold replay or fresh audit", step, p)
						}
					}
				}
			}
			if len(tail) == 0 || cursor == 0 {
				t.Fatalf("schedule audited nothing: %d pairs, cursor %d", len(tail), cursor)
			}
		})
	}
}

// TestPoolStartTwice ensures the pool rejects a second Start and Stop is
// idempotent.
func TestPoolStartStop(t *testing.T) {
	st := newTestStore(t)
	pool, err := st.NewAuditPool(store.WithPoolInterval(time.Millisecond))
	if err != nil {
		t.Fatalf("NewAuditPool: %v", err)
	}
	if err := pool.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := pool.Start(); err == nil {
		t.Error("second Start must fail")
	}
	pool.Stop()
	pool.Stop()
}

func TestPoolOptionValidation(t *testing.T) {
	st := newTestStore(t)
	if _, err := st.NewAuditPool(store.WithPoolWorkers(0)); err == nil {
		t.Error("zero workers must fail")
	}
	if _, err := st.NewAuditPool(store.WithPoolInterval(0)); err == nil {
		t.Error("zero interval must fail")
	}
}

// TestIdlePoolSweepAllocationFree pins what a sweep costs when nothing
// happened since the last one: every cursor re-audits, finds its set
// unchanged, and keeps the report it already published, so a Flush over
// idle registers and max registers allocates nothing. A report that grew is
// published afresh.
func TestIdlePoolSweepAllocationFree(t *testing.T) {
	st := newTestStore(t)
	for i := 0; i < 16; i++ {
		kind := []store.Kind{store.Register, store.MaxRegister}[i%2]
		name := fmt.Sprintf("idle-%02d", i)
		if _, err := st.Open(name, kind); err != nil {
			t.Fatalf("Open(%s): %v", name, err)
		}
		if err := st.Write(name, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Read(name, i%8); err != nil {
			t.Fatal(err)
		}
	}
	pool, err := st.NewAuditPool()
	if err != nil {
		t.Fatalf("NewAuditPool: %v", err)
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	before, _ := pool.Report("idle-03")
	if n := testing.AllocsPerRun(100, func() {
		if err := pool.Flush(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("idle Flush over 16 objects allocated %v times per run, want 0", n)
	}
	if _, err := st.Read("idle-03", 7); err != nil {
		t.Fatal(err)
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	after, _ := pool.Report("idle-03")
	if before.Len() != 1 || after.Len() != 2 || !after.Report.Contains(7, 4) {
		t.Fatalf("reports %v then %v, want (3, 4) then also (7, 4)", before.Report, after.Report)
	}
}

// TestGrownReportPublishAllocationFree pins what a sweep costs when every
// report grew in place: a new reader of a value already read adds one pair,
// the auditor's list has capacity to spare, and publishing the longer report
// stores a count, not a fresh box, so a Flush over 16 grown registers and
// max registers allocates nothing. The flushes are counted alone, reads
// outside, and averaged as testing.AllocsPerRun averages (an integer mean):
// the runtime now and then allocates a few objects of its own early in a
// test, as often during an idle flush as during a grown one.
func TestGrownReportPublishAllocationFree(t *testing.T) {
	const pairs, readers = 17, 32 // 17 pairs grow the list to a capacity of 32
	st := newTestStore(t, store.WithReaders[uint64](readers))
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("grown-%02d", i)
		if _, err := st.Open(names[i], []store.Kind{store.Register, store.MaxRegister}[i%2]); err != nil {
			t.Fatalf("Open(%s): %v", names[i], err)
		}
		if err := st.Write(names[i], uint64(i+1)); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < pairs; j++ {
			if _, err := st.Read(names[i], j); err != nil {
				t.Fatal(err)
			}
		}
	}
	pool, err := st.NewAuditPool()
	if err != nil {
		t.Fatalf("NewAuditPool: %v", err)
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	var (
		ms      runtime.MemStats
		mallocs uint64
	)
	for j := pairs; j < readers; j++ {
		for _, name := range names {
			if _, err := st.Read(name, j); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if err := pool.Flush(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		for i, name := range names {
			if rep, _ := pool.Report(name); rep.Len() != j+1 || !rep.Report.Contains(j, uint64(i+1)) {
				t.Fatalf("%s report %v, want %d pairs with (%d, %d)", name, rep.Report, j+1, j, i+1)
			}
		}
	}
	if rounds := uint64(readers - pairs); mallocs/rounds != 0 {
		t.Fatalf("%d Flushes over 16 reports grown by one pair each allocated %d times, want 0 per Flush", rounds, mallocs)
	}
}

// TestPoolReportsGrowByPrefix checks the publication order of a cursor's
// report — the list's base stored before the count, the count loaded before
// the base — against readers that never lock: pool workers sweep every
// millisecond while writers and readers grow the lists through many
// reallocations, and report checkers call Report and Merged throughout.
// Every report a checker sees must keep the previous one as its prefix, so
// its length never falls, and every pair it saw must be one a reader really
// read.
func TestPoolReportsGrowByPrefix(t *testing.T) {
	const (
		readers = 16
		values  = 300
	)
	st := newTestStore(t, store.WithReaders[uint64](readers))
	kinds := []store.Kind{store.Register, store.MaxRegister, store.Snapshot, store.Register}
	kinds = append(kinds, kinds...)
	names := make([]string, len(kinds))
	for i, kind := range kinds {
		names[i] = fmt.Sprintf("prefix-%d", i)
		if _, err := st.Open(names[i], kind, store.WithObjectComponents(2)); err != nil {
			t.Fatalf("Open(%s): %v", names[i], err)
		}
	}
	pool, err := st.NewAuditPool(store.WithPoolWorkers(2), store.WithPoolInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	defer pool.Stop()

	// A pair is (reader, value, 0) for a register and (scanner, view[0],
	// view[1]) for a snapshot; ok is false for a view that cannot be one.
	type pair [3]uint64
	pairsOf := func(rep store.ObjectAudit[uint64]) (out []pair, ok bool) {
		if rep.Kind != store.Snapshot {
			for _, e := range rep.Report.From(0) {
				out = append(out, pair{uint64(e.Reader), e.Value})
			}
			return out, true
		}
		for _, e := range rep.Views {
			if len(e.View) != 2 {
				return nil, false
			}
			out = append(out, pair{uint64(e.Reader), e.View[0], e.View[1]})
		}
		return out, true
	}
	observed := make([]sync.Map, len(names)) // pairs readers read
	var traffic sync.WaitGroup
	for i, name := range names {
		obj, _ := st.Lookup(name)
		traffic.Add(1)
		go func() {
			defer traffic.Done()
			for v := uint64(1); v <= values; v++ {
				var err error
				if kinds[i] == store.Snapshot {
					err = obj.UpdateAt(int(v)%2, v)
				} else {
					err = obj.Write(v)
				}
				if err != nil {
					t.Error(err)
					return
				}
				// Several new readers of each value: the lists grow by
				// batches and reallocate again and again.
				for j := int(v) % 3; j < readers; j += 3 {
					if kinds[i] == store.Snapshot {
						view, err := obj.Scan(j)
						if err != nil {
							t.Error(err)
							return
						}
						observed[i].Store(pair{uint64(j), view[0], view[1]}, true)
						continue
					}
					got, err := obj.Read(j)
					if err != nil {
						t.Error(err)
						return
					}
					observed[i].Store(pair{uint64(j), got}, true)
				}
				if v%4 == 0 {
					time.Sleep(50 * time.Microsecond) // let sweeps publish partway
				}
			}
		}()
	}

	var (
		done     atomic.Bool
		checkers sync.WaitGroup
		seen     = make([]sync.Map, len(names)) // pairs any checker saw
	)
	for c := 0; c < 2; c++ {
		checkers.Add(1)
		go func() {
			defer checkers.Done()
			prev := make([][]pair, len(names))
			check := func(i int, rep store.ObjectAudit[uint64]) bool {
				got, ok := pairsOf(rep)
				switch {
				case rep.Object != names[i] || rep.Kind != kinds[i]:
					t.Errorf("report of %s names %s/%v", names[i], rep.Object, rep.Kind)
				case !ok:
					t.Errorf("%s: report holds a view that is not one", names[i])
				case len(got) < len(prev[i]) || !slices.Equal(got[:len(prev[i])], prev[i]):
					t.Errorf("%s: report of %d pairs does not extend the previous one of %d", names[i], len(got), len(prev[i]))
				default:
					for _, p := range got[len(prev[i]):] {
						seen[i].Store(p, true)
					}
					prev[i] = got
					return true
				}
				return false
			}
			for round := 0; !done.Load(); round++ {
				if round%2 == 0 {
					for i, name := range names {
						if rep, ok := pool.Report(name); ok && !check(i, rep) {
							return
						}
					}
					continue
				}
				for _, rep := range pool.Merged() {
					if i := slices.Index(names, rep.Object); i < 0 || !check(i, rep) {
						return
					}
				}
			}
		}()
	}
	// A prober only loads reports, as fast as it can, so it often sits
	// between a report's two loads while a sweep publishes: a base too old
	// for its count shows as a length that fell, a view that is no pair, or
	// under -race as checkptr's straddling-slice fault.
	checkers.Add(1)
	go func() {
		defer checkers.Done()
		lens := make([]int, len(names))
		for !done.Load() {
			for i, name := range names {
				rep, _ := pool.Report(name)
				if rep.Len() < lens[i] {
					t.Errorf("%s: report length fell from %d to %d", name, lens[i], rep.Len())
					return
				}
				lens[i] = rep.Len()
			}
		}
	}()
	traffic.Wait()
	done.Store(true)
	checkers.Wait()
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		seen[i].Range(func(p, _ any) bool {
			if _, ok := observed[i].Load(p); !ok {
				t.Errorf("%s: a checker saw pair %v that no reader read", name, p)
			}
			return true
		})
		var read int
		observed[i].Range(func(_, _ any) bool { read++; return true })
		if rep, _ := pool.Report(name); rep.Len() != read {
			t.Errorf("%s: final report has %d pairs, readers read %d", name, rep.Len(), read)
		}
	}
}

// TestSharedFoldUnderConcurrentAudits holds an object's one audit fold to
// the from-scratch oracle while everything that advances or reads it runs at
// once: writers, readers, a started pool sweeping every millisecond, and
// auditors calling Store.Audit, AuditPool.AuditObject and AuditPool.Report
// on the same objects. All three reach one fold, so every report an auditor
// sees, whichever call returned it, must keep the previous one as its
// prefix. Once traffic quiesces, one more Store.Audit of each object must
// equal FreshAudit. Readers keep reading a value after audits folded it, so
// a fold that skipped re-reading the row at its cursor (lsa) would lose
// those readers and fail the final check. The schedule is seeded afresh
// each run; a failure prints its seed.
func TestSharedFoldUnderConcurrentAudits(t *testing.T) {
	const (
		readers = 8
		writes  = 400 // per writer
	)
	seed := time.Now().UnixNano()
	st := newTestStore(t, store.WithReaders[uint64](readers))
	kinds := []store.Kind{store.Register, store.MaxRegister, store.Snapshot}
	names := make([]string, 2*len(kinds))
	for i := range names {
		names[i] = fmt.Sprintf("fold-%d", i)
		if _, err := st.Open(names[i], kinds[i%len(kinds)], store.WithObjectComponents(2)); err != nil {
			t.Fatalf("Open(%s): %v", names[i], err)
		}
	}
	pool, err := st.NewAuditPool(store.WithPoolWorkers(2), store.WithPoolInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Start(); err != nil {
		t.Fatal(err)
	}
	defer pool.Stop()

	// pairs lists a report's pairs in its order: (reader, value, 0) for a
	// register, (scanner, view[0], view[1]) for a snapshot.
	type pair [3]uint64
	pairs := func(rep store.ObjectAudit[uint64]) []pair {
		var out []pair
		for _, e := range rep.Report.From(0) {
			out = append(out, pair{uint64(e.Reader), e.Value})
		}
		for _, e := range rep.Views {
			out = append(out, pair{uint64(e.Reader), e.View[0], e.View[1]})
		}
		return out
	}

	var traffic sync.WaitGroup
	for w := 0; w < 2; w++ {
		traffic.Add(1)
		go func() {
			defer traffic.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for n := 0; n < writes; n++ {
				i := rng.Intn(len(names))
				obj, _ := st.Lookup(names[i])
				v := uint64(w*writes + n + 1) // distinct: a lost pair cannot hide behind a later read of its value
				var err error
				if obj.Kind() == store.Snapshot {
					err = obj.UpdateAt(w, v)
				} else {
					err = obj.Write(v)
				}
				if err != nil {
					t.Errorf("seed %d: write %s: %v", seed, names[i], err)
					return
				}
				// Readers of the new value, some before an audit folds it
				// and some after: the latter land in the row at the cursor.
				for r := 0; r < 3; r++ {
					j := rng.Intn(readers)
					if obj.Kind() == store.Snapshot {
						_, err = obj.Scan(j)
					} else {
						_, err = obj.Read(j)
					}
					if err != nil {
						t.Errorf("seed %d: read %s: %v", seed, names[i], err)
						return
					}
					if rng.Intn(2) == 0 {
						runtime.Gosched()
					}
				}
			}
		}()
	}

	var (
		done     atomic.Bool
		auditors sync.WaitGroup
	)
	for a := 0; a < 2; a++ {
		auditors.Add(1)
		go func() {
			defer auditors.Done()
			rng := rand.New(rand.NewSource(seed + 100 + int64(a)))
			prev := make([][]pair, len(names))
			for !done.Load() {
				i := rng.Intn(len(names))
				var (
					rep store.ObjectAudit[uint64]
					err error
					ok  = true
				)
				switch rng.Intn(3) {
				case 0:
					rep, err = st.Audit(names[i])
				case 1:
					rep, err = pool.AuditObject(names[i])
				default:
					rep, ok = pool.Report(names[i])
				}
				if err != nil {
					t.Errorf("seed %d: audit %s: %v", seed, names[i], err)
					return
				}
				if !ok {
					continue
				}
				got := pairs(rep)
				if len(got) < len(prev[i]) || !slices.Equal(got[:len(prev[i])], prev[i]) {
					t.Errorf("seed %d: %s: report of %d pairs does not extend the previous one of %d", seed, names[i], len(got), len(prev[i]))
					return
				}
				prev[i] = got
			}
		}()
	}
	traffic.Wait()
	done.Store(true)
	auditors.Wait()
	if t.Failed() {
		return
	}
	for _, name := range names {
		got, err := st.Audit(name)
		if err != nil {
			t.Fatalf("seed %d: Audit(%s): %v", seed, name, err)
		}
		obj, _ := st.Lookup(name)
		fresh, err := store.FreshAudit(obj)
		if err != nil {
			t.Fatalf("seed %d: FreshAudit(%s): %v", seed, name, err)
		}
		if !got.Same(fresh) {
			t.Errorf("seed %d: %s: the shared fold has %d pairs, the from-scratch fold %d", seed, name, got.Len(), fresh.Len())
		}
	}
	if err := pool.Err(); err != nil {
		t.Fatalf("seed %d: pool observed audit error: %v", seed, err)
	}
}
