package store_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"auditreg/store"
)

// TestReadFetchAnnounceEquivalence pins that a read driven through the split
// halves (ReadFetch + Announce) is indistinguishable — in returned values and
// in the resulting audit set — from the combined Read, on both register
// kinds. This is the invariant the network layer relies on: the server
// executes the two halves on behalf of remote readers.
func TestReadFetchAnnounceEquivalence(t *testing.T) {
	for _, kind := range []store.Kind{store.Register, store.MaxRegister} {
		t.Run(kind.String(), func(t *testing.T) {
			combined := newTestStore(t)
			split := newTestStore(t)
			co, err := combined.Open("obj", kind)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			so, err := split.Open("obj", kind)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}

			splitRead := func(reader int) uint64 {
				v, seq, fetched, err := so.ReadFetch(reader)
				if err != nil {
					t.Fatalf("ReadFetch: %v", err)
				}
				if fetched {
					if err := so.Announce(reader, seq); err != nil {
						t.Fatalf("Announce: %v", err)
					}
				}
				return v
			}

			// Identical sequential schedule on both stores.
			for i := 0; i < 40; i++ {
				v := uint64(i * 3)
				if err := co.Write(v); err != nil {
					t.Fatalf("Write: %v", err)
				}
				if err := so.Write(v); err != nil {
					t.Fatalf("Write: %v", err)
				}
				for reader := 0; reader < 3; reader++ {
					got, err := co.Read(reader)
					if err != nil {
						t.Fatalf("Read: %v", err)
					}
					if want := splitRead(reader); want != got {
						t.Fatalf("step %d reader %d: split read %d, combined read %d", i, reader, want, got)
					}
					// A second fetch with no intervening write must be
					// silent and return the same value.
					v2, _, fetched, err := so.ReadFetch(reader)
					if err != nil {
						t.Fatalf("ReadFetch: %v", err)
					}
					if fetched {
						t.Fatalf("step %d reader %d: repeat ReadFetch was not silent", i, reader)
					}
					if v2 != got {
						t.Fatalf("step %d reader %d: silent ReadFetch %d != %d", i, reader, v2, got)
					}
				}
			}

			ca, err := combined.Audit("obj")
			if err != nil {
				t.Fatalf("Audit: %v", err)
			}
			sa, err := split.Audit("obj")
			if err != nil {
				t.Fatalf("Audit: %v", err)
			}
			if !ca.Same(sa) {
				t.Fatalf("audit mismatch: combined %v, split %v", ca.Report, sa.Report)
			}
		})
	}
}

// TestAnnounceIsPureHelping pins that stray, duplicated, stale, or forged
// announces (what a confused or malicious remote client could send through
// the READ-ANNOUNCE verb) never corrupt the object: values and audits are
// unaffected. The critical case is seq = SN+1 — an unguarded announce would
// advance SN past the last real write, defeat every reader's silent-read
// check, and let a re-applied fetch&xor toggle tracking bits off the audit.
func TestAnnounceIsPureHelping(t *testing.T) {
	for _, kind := range []store.Kind{store.Register, store.MaxRegister} {
		t.Run(kind.String(), func(t *testing.T) {
			st := newTestStore(t)
			obj, err := st.Open("obj", kind)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if err := obj.Write(7); err != nil {
				t.Fatalf("Write: %v", err)
			}
			// Reader 3's effective read of 7 is audited...
			if v, err := obj.Read(3); err != nil || v != 7 {
				t.Fatalf("Read = (%d, %v), want (7, nil)", v, err)
			}
			// ...and must stay audited through a barrage of bogus
			// announces, including the forged forward announce SN+1 from
			// every reader slot.
			for _, seq := range []uint64{0, 1, 2, 5, 1 << 40, ^uint64(0)} {
				for reader := 0; reader < st.Readers(); reader++ {
					if err := obj.Announce(reader, seq); err != nil {
						t.Fatalf("Announce(%d, %d): %v", reader, seq, err)
					}
				}
			}
			// The forged announces must not have advanced SN: reader 3's
			// next read stays silent (no re-fetch&xor that would toggle
			// its tracking bit off).
			if _, _, fetched, err := obj.ReadFetch(3); err != nil || fetched {
				t.Fatalf("ReadFetch after forged announces = (fetched=%v, %v), want silent", fetched, err)
			}
			if v, err := obj.Read(1); err != nil || v != 7 {
				t.Fatalf("Read after stray announces = (%d, %v), want (7, nil)", v, err)
			}
			aud, err := st.Audit("obj")
			if err != nil {
				t.Fatalf("Audit: %v", err)
			}
			if !aud.Report.Contains(1, 7) || !aud.Report.Contains(3, 7) {
				t.Fatalf("audit %v missing (1, 7) or (3, 7)", aud.Report)
			}
		})
	}
}

func TestSplitReadKindAndRangeErrors(t *testing.T) {
	st := newTestStore(t)
	snap, err := st.Open("snap", store.Snapshot)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, _, _, err := snap.ReadFetch(0); !errors.Is(err, store.ErrKindMismatch) {
		t.Fatalf("snapshot ReadFetch err = %v, want ErrKindMismatch", err)
	}
	if err := snap.Announce(0, 1); !errors.Is(err, store.ErrKindMismatch) {
		t.Fatalf("snapshot Announce err = %v, want ErrKindMismatch", err)
	}
	reg, err := st.Open("reg", store.Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, _, _, err := reg.ReadFetch(-1); err == nil {
		t.Fatal("ReadFetch(-1) succeeded")
	}
	if _, _, _, err := reg.ReadFetch(st.Readers()); err == nil {
		t.Fatal("ReadFetch(m) succeeded")
	}
	if err := reg.Announce(st.Readers(), 1); err == nil {
		t.Fatal("Announce(m) succeeded")
	}
}

func TestAuditObjectIsFresh(t *testing.T) {
	st := newTestStore(t)
	pool, err := st.NewAuditPool()
	if err != nil {
		t.Fatalf("NewAuditPool: %v", err)
	}
	obj, err := st.Open("obj", store.Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for round := 0; round < 5; round++ {
		if err := obj.Write(uint64(100 + round)); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if _, err := obj.Read(round % st.Readers()); err != nil {
			t.Fatalf("Read: %v", err)
		}
		got, err := pool.AuditObject("obj")
		if err != nil {
			t.Fatalf("AuditObject: %v", err)
		}
		ground, err := store.FreshAudit(obj)
		if err != nil {
			t.Fatalf("FreshAudit: %v", err)
		}
		if !got.Same(ground) {
			t.Fatalf("round %d: AuditObject %v != from-scratch fold %v", round, got.Report, ground.Report)
		}
		// The published report is the same chain the sweeps use.
		rep, ok := pool.Report("obj")
		if !ok || !rep.Same(got) {
			t.Fatalf("round %d: published report %v (ok=%v) != AuditObject %v", round, rep.Report, ok, got.Report)
		}
	}
	if _, err := pool.AuditObject("missing"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("AuditObject(missing) err = %v, want ErrNotFound", err)
	}
}

// TestPoolFlushRacesTeardown pins that Flush racing Stop, concurrent
// flushes, on-demand audits, report lookups, and live traffic is safe: the
// teardown sequence a server shutdown performs (stop workers, final flush,
// drop the store) cannot deadlock, panic, or trip the race detector, and
// published reports only ever grow.
func TestPoolFlushRacesTeardown(t *testing.T) {
	st := newTestStore(t)
	const objects = 32
	names := make([]string, objects)
	for i := range names {
		kind := []store.Kind{store.Register, store.MaxRegister, store.Snapshot}[i%3]
		names[i] = fmt.Sprintf("%v-%03d", kind, i)
		if _, err := st.Open(names[i], kind); err != nil {
			t.Fatalf("Open: %v", err)
		}
	}
	pool, err := st.NewAuditPool(store.WithPoolWorkers(4), store.WithPoolInterval(1))
	if err != nil {
		t.Fatalf("NewAuditPool: %v", err)
	}
	if err := pool.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}

	var wg sync.WaitGroup
	// Traffic.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				obj, _ := st.Lookup(names[(g*31+i)%objects])
				switch obj.Kind() {
				case store.Snapshot:
					_ = obj.UpdateAt(i%obj.Components(), uint64(i))
				default:
					_ = obj.Write(uint64(i))
					_, _ = obj.Read(g % st.Readers())
				}
			}
		}(g)
	}
	// Concurrent flushes and on-demand audits while traffic runs and the
	// pool is being stopped.
	for f := 0; f < 3; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := pool.Flush(); err != nil {
					t.Errorf("Flush: %v", err)
					return
				}
				if _, err := pool.AuditObject(names[(f*7+i)%objects]); err != nil {
					t.Errorf("AuditObject: %v", err)
					return
				}
				pool.Report(names[i%objects])
				pool.Merged()
			}
		}(f)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		pool.Stop() // teardown races the flushes above
	}()
	wg.Wait()

	// Reports must be monotone across one more flush: teardown must not
	// have corrupted any cursor.
	before := pool.Merged()
	if err := pool.Flush(); err != nil {
		t.Fatalf("final Flush: %v", err)
	}
	for _, prev := range before {
		now, ok := pool.Report(prev.Object)
		if !ok {
			t.Fatalf("report for %s vanished", prev.Object)
		}
		if !prev.Subset(now) {
			t.Fatalf("report for %s shrank across teardown", prev.Object)
		}
	}
	if err := pool.Err(); err != nil {
		t.Fatalf("pool error after teardown: %v", err)
	}
}
