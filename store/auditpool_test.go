package store_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"auditreg/store"
)

// TestPoolMatchesPerObjectAudit is the store-level equivalence proof: under
// mixed concurrent read/write traffic over many objects of all three kinds,
// the batched asynchronous audit pipeline reports exactly the readers that
// effectively read each object — mid-traffic reports contain no false
// positives (every pair also appears in the final synchronous ground truth),
// and once traffic quiesces a Flush leaves no false negatives (pool report
// and fresh full-history per-object audit are equal sets).
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
		aud, err := st.Audit(name)
		if err != nil {
			t.Fatalf("ground-truth Audit(%s): %v", name, err)
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
			t.Errorf("pool report for %s disagrees with per-object audit:\npool:   %d pairs\nground: %d pairs",
				name, rep.Len(), ground[name].Len())
		}
	}

	// No false positives mid-traffic: every mid-flight report is a subset
	// of the final ground truth.
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
	ground, err := st.Audit("r")
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Same(ground) {
		t.Errorf("incremental report %v != ground truth %v", rep2.Report, ground.Report)
	}
}

// TestPoolRowsTailEqualsFresh drives both register kinds through the one
// read and audit path they share — ReadFetch, Announce, AuditPool.Rows — under
// a seeded schedule, with an auditor that tails (asks only for rows since its
// cursor, three at a time, and keeps the cumulative set itself). After every
// tail step the set must equal what a cold replay from row 0 yields and what a
// fresh per-object audit reports: tail == fresh, for Register and MaxRegister
// alike.
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
			for step := 0; step < 600; step++ {
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
					ground, err := obj.Audit()
					if err != nil {
						t.Fatalf("Audit: %v", err)
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
