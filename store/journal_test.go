package store

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"auditreg"
)

// memJournal captures records in arrival order; failAfter > 0 makes Record
// fail once that many records have been accepted.
type memJournal struct {
	mu        sync.Mutex
	recs      []JournalRecord[uint64]
	failAfter int
}

func (j *memJournal) Record(r JournalRecord[uint64]) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failAfter > 0 && len(j.recs) >= j.failAfter {
		return fmt.Errorf("memJournal: disk full")
	}
	j.recs = append(j.recs, r)
	return nil
}

func (j *memJournal) records() []JournalRecord[uint64] {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]JournalRecord[uint64](nil), j.recs...)
}

func newJournaledStore(t *testing.T, j Journal[uint64]) *Store[uint64] {
	t.Helper()
	st, err := New[uint64](auditreg.KeyFromSeed(11),
		WithReaders[uint64](4),
		WithLess[uint64](func(a, b uint64) bool { return a < b }),
		WithJournal[uint64](j),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return st
}

// TestJournalRecordsMutations pins the exact record stream a simple register
// workload emits: open, installed writes with their seqs, one fetch record
// per effective read (silent reads emit nothing), and announce records.
func TestJournalRecordsMutations(t *testing.T) {
	j := &memJournal{}
	st := newJournaledStore(t, j)

	obj, err := st.Open("acct/1", Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := obj.Write(100); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if v, err := obj.Read(2); err != nil || v != 100 {
		t.Fatalf("Read = %d, %v", v, err)
	}
	// A second read with no intervening write is silent: no new records.
	before := len(j.records())
	if v, err := obj.Read(2); err != nil || v != 100 {
		t.Fatalf("silent Read = %d, %v", v, err)
	}
	if got := len(j.records()); got != before {
		t.Fatalf("silent read emitted %d records", got-before)
	}

	want := []JournalRecord[uint64]{
		{Op: JournalOpen, Name: "acct/1", Kind: Register, Capacity: DefaultCapacity},
		{Op: JournalWrite, Name: "acct/1", Kind: Register, Seq: 1, Value: 100},
		{Op: JournalFetch, Name: "acct/1", Kind: Register, Reader: 2, Seq: 1, Value: 100},
		{Op: JournalAnnounce, Name: "acct/1", Kind: Register, Reader: 2, Seq: 1},
	}
	got := j.records()
	if len(got) != len(want) {
		t.Fatalf("got %d records %+v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestJournalMaxRegisterCarriesValueNotSeq pins that max-register writes are
// journaled by value (replay order for a max register is determined by
// value, not install position).
func TestJournalMaxRegisterCarriesValueNotSeq(t *testing.T) {
	j := &memJournal{}
	st := newJournaledStore(t, j)

	obj, err := st.Open("peak", MaxRegister)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, v := range []uint64{7, 3, 9} {
		if err := obj.Write(v); err != nil {
			t.Fatalf("Write(%d): %v", v, err)
		}
	}
	var writes []JournalRecord[uint64]
	for _, r := range j.records() {
		if r.Op == JournalWrite {
			writes = append(writes, r)
		}
	}
	if len(writes) != 3 {
		t.Fatalf("got %d write records, want 3", len(writes))
	}
	for i, v := range []uint64{7, 3, 9} {
		if writes[i].Value != v || writes[i].Seq != 0 || writes[i].Kind != MaxRegister {
			t.Errorf("write record %d = %+v, want value %d, seq 0", i, writes[i], v)
		}
	}
}

// TestJournaledStoreRejectsSnapshots pins the typed error: a journaled store
// cannot host Snapshot objects.
func TestJournaledStoreRejectsSnapshots(t *testing.T) {
	st := newJournaledStore(t, &memJournal{})
	if _, err := st.Open("view", Snapshot); !errors.Is(err, ErrNotJournaled) {
		t.Fatalf("Open(Snapshot) = %v, want ErrNotJournaled", err)
	}
	// An unjournaled store still hosts them.
	plain, err := New[uint64](auditreg.KeyFromSeed(12), WithReaders[uint64](2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := plain.Open("view", Snapshot); err != nil {
		t.Fatalf("unjournaled Open(Snapshot): %v", err)
	}
}

// TestJournaledStoreRejectsOversizedNames pins that names the durable
// record format cannot carry are refused at creation — before the object
// exists — so the map and the journal can never disagree about an object.
func TestJournaledStoreRejectsOversizedNames(t *testing.T) {
	st := newJournaledStore(t, &memJournal{})
	long := strings.Repeat("n", 1025)
	if _, err := st.Open(long, Register); !errors.Is(err, ErrNotJournaled) {
		t.Fatalf("Open(oversized) = %v, want ErrNotJournaled", err)
	}
	if _, ok := st.Lookup(long); ok {
		t.Fatal("rejected object was published in the store")
	}
}

// TestJournalErrorFailsOperation pins that a journal failure surfaces to the
// caller of the triggering operation.
func TestJournalErrorFailsOperation(t *testing.T) {
	j := &memJournal{failAfter: 1} // accept the open, fail the write
	st := newJournaledStore(t, j)
	obj, err := st.Open("acct/1", Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := obj.Write(5); err == nil {
		t.Fatal("Write with failing journal succeeded")
	}
}

// TestJournalAuditCursorAdvance pins that a pool cursor's first nonempty
// report journals the object's audited mark, carrying the pair count it had.
func TestJournalAuditCursorAdvance(t *testing.T) {
	j := &memJournal{}
	st := newJournaledStore(t, j)
	obj, err := st.Open("acct/1", Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := obj.Write(4); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := obj.Read(0); err != nil {
		t.Fatalf("Read: %v", err)
	}
	pool, err := st.NewAuditPool()
	if err != nil {
		t.Fatalf("NewAuditPool: %v", err)
	}
	if err := pool.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	var audits []JournalRecord[uint64]
	for _, r := range j.records() {
		if r.Op == JournalAudit {
			audits = append(audits, r)
		}
	}
	if len(audits) != 1 {
		t.Fatalf("got %d audit records, want 1", len(audits))
	}
	if audits[0].Name != "acct/1" || audits[0].Pairs != 1 {
		t.Errorf("audit record = %+v, want acct/1 with 1 pair", audits[0])
	}
}

// TestJournalAuditOncePerBoot pins that the audited mark is journaled once
// a boot, not on every growth: recovery reads only the name, and re-audits
// it. A report that grows three times leaves one JournalAudit record.
func TestJournalAuditOncePerBoot(t *testing.T) {
	j := &memJournal{}
	st := newJournaledStore(t, j)
	obj, err := st.Open("acct/1", Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	pool, err := st.NewAuditPool()
	if err != nil {
		t.Fatalf("NewAuditPool: %v", err)
	}
	if err := pool.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for v := uint64(1); v <= 3; v++ {
		if err := obj.Write(v); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if _, err := obj.Read(int(v)); err != nil {
			t.Fatalf("Read: %v", err)
		}
		if err := pool.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if rep, _ := pool.Report("acct/1"); rep.Len() != int(v) {
			t.Fatalf("report after growth %d has %d pairs", v, rep.Len())
		}
	}
	var audits []JournalRecord[uint64]
	for _, r := range j.records() {
		if r.Op == JournalAudit {
			audits = append(audits, r)
		}
	}
	if len(audits) != 1 || audits[0].Name != "acct/1" || audits[0].Pairs != 1 {
		t.Fatalf("audit records = %+v, want one for acct/1 with 1 pair", audits)
	}
}

// asyncMemJournal is memJournal plus the AsyncJournal extension: records
// append immediately; verdicts report against a programmable error and
// count their waits.
type asyncMemJournal struct {
	memJournal
	commitErr error
	commits   int
}

func (j *asyncMemJournal) RecordAsync(r JournalRecord[uint64]) (Verdict, error) {
	if err := j.Record(r); err != nil {
		return nil, err
	}
	if r.Op == JournalAnnounce || r.Op == JournalAudit {
		return nil, nil // non-blocking records have no pending verdict
	}
	return j, nil
}

// Wait implements Verdict: every record's verdict is the journal's current
// programmed error.
func (j *asyncMemJournal) Wait() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.commits++
	return j.commitErr
}

// TestWriteAsyncSplitsDurabilityWait pins the async contract: the record is
// appended before WriteAsync returns, the Commit carries the verdict
// (including failure, wrapped like the synchronous path), and callers
// against a plain Journal fall back to synchronous semantics with nothing
// pending.
func TestWriteAsyncSplitsDurabilityWait(t *testing.T) {
	j := &asyncMemJournal{}
	st := newJournaledStore(t, j)
	obj, err := st.Open("acct/a", Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	commit, err := obj.WriteAsync(7)
	if err != nil {
		t.Fatalf("WriteAsync: %v", err)
	}
	if !commit.Pending() {
		t.Fatal("WriteAsync against an AsyncJournal returned no pending verdict")
	}
	recs := j.records()
	if got := recs[len(recs)-1]; got.Op != JournalWrite || got.Value != 7 {
		t.Fatalf("record not appended before WriteAsync returned: %+v", got)
	}
	if err := commit.Wait(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	// A failing verdict surfaces through Wait, wrapped like journal errors.
	fsyncErr := errors.New("fsync exploded")
	j.mu.Lock()
	j.commitErr = fsyncErr
	j.mu.Unlock()
	commit, err = obj.WriteAsync(8)
	if err != nil {
		t.Fatalf("WriteAsync: %v", err)
	}
	err = commit.Wait()
	if !errors.Is(err, fsyncErr) || !strings.Contains(err.Error(), `write "acct/a": journal`) {
		t.Fatalf("commit error = %v, want the fsync failure wrapped as a journal error", err)
	}

	// The effective read's fetch record is appended before ReadFetchAsync
	// returns; its commit reports the verdict too.
	j.mu.Lock()
	j.commitErr = nil
	j.mu.Unlock()
	_, _, fetched, rcommit, err := obj.ReadFetchAsync(1)
	if err != nil {
		t.Fatalf("ReadFetchAsync: %v", err)
	}
	if !fetched || !rcommit.Pending() {
		t.Fatalf("fetched=%v pending=%v, want an effective read with a pending verdict", fetched, rcommit.Pending())
	}
	recs = j.records()
	if got := recs[len(recs)-1]; got.Op != JournalFetch || got.Reader != 1 {
		t.Fatalf("fetch record not appended before return: %+v", got)
	}
	if err := rcommit.Wait(); err != nil {
		t.Fatalf("fetch commit: %v", err)
	}

	// A silent read has no record and no verdict.
	_, _, fetched, rcommit, err = obj.ReadFetchAsync(1)
	if err != nil || fetched || rcommit.Pending() {
		t.Fatalf("silent read: fetched=%v pending=%v err=%v, want nothing pending", fetched, rcommit.Pending(), err)
	}

	// Plain (non-async) journals degrade to the synchronous path.
	sj := &memJournal{}
	st2 := newJournaledStore(t, sj)
	obj2, err := st2.Open("acct/b", Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	commit, err = obj2.WriteAsync(9)
	if err != nil {
		t.Fatalf("WriteAsync (sync fallback): %v", err)
	}
	if commit.Pending() {
		t.Fatal("sync-journal fallback must leave nothing pending (already settled)")
	}
	recs2 := sj.records()
	if got := recs2[len(recs2)-1]; got.Op != JournalWrite || got.Value != 9 {
		t.Fatalf("sync fallback did not record: %+v", got)
	}
}

// TestJournalRecordsNothingPastCapacity: a write refused at the end of the
// history took no effect, so a journaled store records nothing for it.
func TestJournalRecordsNothingPastCapacity(t *testing.T) {
	const capacity = 1024
	for _, kind := range []Kind{Register, MaxRegister} {
		j := &memJournal{}
		st, err := New[uint64](auditreg.KeyFromSeed(11),
			WithReaders[uint64](4),
			WithLess[uint64](func(a, b uint64) bool { return a < b }),
			WithCapacity[uint64](capacity),
			WithJournal[uint64](j),
		)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		obj, err := st.Open("o", kind)
		if err != nil {
			t.Fatalf("%v: Open: %v", kind, err)
		}
		for v := uint64(1); v <= capacity; v++ {
			if err := obj.Write(v); err != nil {
				t.Fatalf("%v: write %d: %v", kind, v, err)
			}
		}
		before := j.records()
		if err := obj.Write(capacity + 1); !errors.Is(err, ErrCapacity) {
			t.Fatalf("%v: write %d: %v, want ErrCapacity", kind, capacity+1, err)
		}
		if after := j.records(); len(after) != len(before) {
			t.Fatalf("%v: the refused write recorded %v", kind, after[len(before):])
		}
		if last := before[len(before)-1]; last.Op != JournalWrite || last.Value != capacity {
			t.Fatalf("%v: last record %+v, want the write of %d", kind, last, capacity)
		}
	}
}
