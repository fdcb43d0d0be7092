package store_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"auditreg"
	"auditreg/store"
)

func newTestStore(t *testing.T, opts ...store.Option[uint64]) *store.Store[uint64] {
	t.Helper()
	base := []store.Option[uint64]{
		store.WithReaders[uint64](8),
		store.WithLess[uint64](func(a, b uint64) bool { return a < b }),
		store.WithNonces[uint64](func(id uint64) auditreg.NonceSource {
			return auditreg.NewSeededNonces(id+1, uint8(id))
		}),
	}
	st, err := store.New(auditreg.KeyFromSeed(42), append(base, opts...)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return st
}

func TestOpenIsLazyAndExactlyOnce(t *testing.T) {
	st := newTestStore(t)
	if st.Len() != 0 {
		t.Fatalf("fresh store holds %d objects, want 0", st.Len())
	}
	obj, err := st.Open("a", store.Register)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	again, err := st.Open("a", store.Register)
	if err != nil {
		t.Fatalf("re-Open: %v", err)
	}
	if obj != again {
		t.Error("re-opening a name must return the same object")
	}
	if st.Len() != 1 {
		t.Errorf("Len() = %d, want 1", st.Len())
	}
	if got, ok := st.Lookup("a"); !ok || got != obj {
		t.Error("Lookup must find the opened object")
	}
	if _, ok := st.Lookup("missing"); ok {
		t.Error("Lookup must not find unopened names")
	}
}

func TestOpenKindMismatch(t *testing.T) {
	st := newTestStore(t)
	if _, err := st.Open("a", store.Register); err != nil {
		t.Fatalf("Open: %v", err)
	}
	_, err := st.Open("a", store.MaxRegister)
	if !errors.Is(err, store.ErrKindMismatch) {
		t.Fatalf("Open with wrong kind: err = %v, want ErrKindMismatch", err)
	}
}

func TestOpenConcurrent(t *testing.T) {
	st := newTestStore(t)
	const goroutines = 16
	objs := make([]*store.Object[uint64], goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			obj, err := st.Open("shared", store.Register)
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			objs[g] = obj
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if objs[g] != objs[0] {
			t.Fatal("concurrent opens must agree on one object")
		}
	}
}

func TestRegisterReadWriteAudit(t *testing.T) {
	st := newTestStore(t)
	if _, err := st.Open("r", store.Register); err != nil {
		t.Fatalf("Open: %v", err)
	}
	v, err := st.Read("r", 0)
	if err != nil || v != 0 {
		t.Fatalf("initial Read = (%d, %v), want (0, nil)", v, err)
	}
	if err := st.Write("r", 7); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if v, _ = st.Read("r", 1); v != 7 {
		t.Fatalf("Read after write = %d, want 7", v)
	}
	// A silent re-read (no intervening write) must not add audit entries.
	if v, _ = st.Read("r", 1); v != 7 {
		t.Fatalf("silent Read = %d, want 7", v)
	}
	aud, err := st.Audit("r")
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if !aud.Report.Contains(0, 0) || !aud.Report.Contains(1, 7) {
		t.Errorf("audit %v misses expected pairs", aud.Report)
	}
	if aud.Report.Len() != 2 {
		t.Errorf("audit has %d pairs, want 2 (silent re-read must not duplicate)", aud.Report.Len())
	}
}

func TestMaxRegisterSemantics(t *testing.T) {
	st := newTestStore(t)
	if _, err := st.Open("m", store.MaxRegister); err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, v := range []uint64{5, 12, 3} {
		if err := st.Write("m", v); err != nil {
			t.Fatalf("Write(%d): %v", v, err)
		}
	}
	if v, _ := st.Read("m", 2); v != 12 {
		t.Fatalf("Read = %d, want the maximum 12", v)
	}
	aud, err := st.Audit("m")
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if !aud.Report.Contains(2, 12) {
		t.Errorf("audit %v misses (2, 12)", aud.Report)
	}
}

func TestSnapshotSemantics(t *testing.T) {
	st := newTestStore(t)
	obj, err := st.Open("s", store.Snapshot, store.WithObjectComponents(3))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if obj.Components() != 3 {
		t.Fatalf("Components() = %d, want 3", obj.Components())
	}
	if err := obj.UpdateAt(1, 42); err != nil {
		t.Fatalf("UpdateAt: %v", err)
	}
	view, err := obj.Scan(0)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(view) != 3 || view[1] != 42 {
		t.Fatalf("Scan = %v, want [0 42 0]", view)
	}
	aud, err := obj.Audit()
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if !auditreg.ContainsView(aud.Views, 0, view) {
		t.Errorf("audit views %v miss scanner 0's view %v", aud.Views, view)
	}

	// Kind-mismatched operations fail.
	if err := obj.Write(1); !errors.Is(err, store.ErrKindMismatch) {
		t.Errorf("Write on snapshot: err = %v, want ErrKindMismatch", err)
	}
	if _, err := obj.Read(0); !errors.Is(err, store.ErrKindMismatch) {
		t.Errorf("Read on snapshot: err = %v, want ErrKindMismatch", err)
	}
	reg, _ := st.Open("r", store.Register)
	if _, err := reg.Scan(0); !errors.Is(err, store.ErrKindMismatch) {
		t.Errorf("Scan on register: err = %v, want ErrKindMismatch", err)
	}
	if err := reg.UpdateAt(0, 1); !errors.Is(err, store.ErrKindMismatch) {
		t.Errorf("UpdateAt on register: err = %v, want ErrKindMismatch", err)
	}
}

func TestUnopenedNamesFail(t *testing.T) {
	st := newTestStore(t)
	if err := st.Write("nope", 1); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("Write: err = %v, want ErrNotFound", err)
	}
	if _, err := st.Read("nope", 0); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("Read: err = %v, want ErrNotFound", err)
	}
	if _, err := st.Audit("nope"); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("Audit: err = %v, want ErrNotFound", err)
	}
}

func TestValidation(t *testing.T) {
	st := newTestStore(t)
	if _, err := st.Open("", store.Register); err == nil {
		t.Error("empty name must fail")
	}
	if _, err := st.Open("x", store.Kind(99)); err == nil {
		t.Error("unknown kind must fail")
	}
	obj, _ := st.Open("r", store.Register)
	if _, err := obj.Read(-1); err == nil {
		t.Error("negative reader index must fail")
	}
	if _, err := obj.Read(8); err == nil {
		t.Error("reader index >= m must fail")
	}

	// MaxRegister without an ordering is rejected at Open.
	noLess, err := store.New[uint64](auditreg.KeyFromSeed(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := noLess.Open("m", store.MaxRegister); err == nil {
		t.Error("MaxRegister without WithLess must fail")
	}
}

func TestPerObjectPadsAreIndependent(t *testing.T) {
	// Two objects derived from one master key must not share pad streams:
	// the same traffic on both still audits correctly (a shared stream
	// would not break audits, so check independence directly through the
	// facade by comparing derived behavior: identical ops on two names
	// yield identical reports, and a store keyed differently disagrees).
	st := newTestStore(t)
	for _, name := range []string{"a", "b"} {
		if _, err := st.Open(name, store.Register); err != nil {
			t.Fatalf("Open(%s): %v", name, err)
		}
		if err := st.Write(name, 9); err != nil {
			t.Fatalf("Write(%s): %v", name, err)
		}
		if v, err := st.Read(name, 3); err != nil || v != 9 {
			t.Fatalf("Read(%s) = (%d, %v), want (9, nil)", name, v, err)
		}
		aud, err := st.Audit(name)
		if err != nil {
			t.Fatalf("Audit(%s): %v", name, err)
		}
		if !aud.Report.Contains(3, 9) || aud.Report.Len() != 1 {
			t.Errorf("audit(%s) = %v, want {(3, 9)}", name, aud.Report)
		}
	}
}

func TestRange(t *testing.T) {
	st := newTestStore(t)
	want := map[string]bool{}
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("obj-%02d", i)
		want[name] = true
		if _, err := st.Open(name, store.Register); err != nil {
			t.Fatalf("Open(%s): %v", name, err)
		}
	}
	got := map[string]bool{}
	st.Range(func(obj *store.Object[uint64]) bool {
		got[obj.Name()] = true
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d objects, want %d", len(got), len(want))
	}
}

// TestLookupAllocationFree pins the name lookup every store operation starts
// with, and a register's read and write behind it, at zero allocations.
func TestLookupAllocationFree(t *testing.T) {
	st := newTestStore(t)
	for i := 0; i < 256; i++ {
		if _, err := st.Open(fmt.Sprintf("obj-%d", i), store.Register); err != nil {
			t.Fatalf("Open: %v", err)
		}
	}
	cases := map[string]func(){
		"Lookup hit":  func() { st.Lookup("obj-17") },
		"Lookup miss": func() { st.Lookup("absent") },
		"Write":       func() { st.Write("obj-17", 5) },
		"Read":        func() { st.Read("obj-17", 3) },
	}
	for name, f := range cases {
		if n := testing.AllocsPerRun(1000, f); n != 0 {
			t.Errorf("%s allocates %.1f times, want 0", name, n)
		}
	}
}

// TestOneShotAuditAllocations pins an object's first audit — the one that
// folds its whole history, here the ladder's 1,328 writes, two thirds of them
// read — at the auditor handle and its set's three slices (index, value
// records, entries), each made once at its reserved size: nothing per row or
// per value. Every later audit folds only what is new (see
// TestRepeatAuditAllocations), so first audits are counted, one per object
// over objects with the same history, as testing.AllocsPerRun counts runs.
func TestOneShotAuditAllocations(t *testing.T) {
	const objects = 8
	st := newTestStore(t)
	objs := make([]*store.Object[uint64], objects)
	for k := range objs {
		obj, err := st.Open(fmt.Sprintf("reg-%d", k), store.Register)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		for i := range 1328 {
			if err := obj.Write(uint64(i) + 1); err != nil {
				t.Fatal(err)
			}
			if i%3 != 0 {
				if _, err := obj.Read(i % 2); err != nil {
					t.Fatal(err)
				}
			}
		}
		objs[k] = obj
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for _, obj := range objs {
		aud, err := obj.Audit()
		if err != nil {
			t.Fatal(err)
		}
		if aud.Len() != 885 {
			t.Fatalf("audit holds %d pairs, want 885", aud.Len())
		}
	}
	runtime.ReadMemStats(&ms)
	if n := (ms.Mallocs - mallocs) / objects; n > 4 {
		t.Errorf("an object's first audit allocates %d times, want <= 4", n)
	}
}

// TestRepeatAuditAllocations pins what an audit costs when nothing happened
// since the last one: Store.Audit of a quiescent register, max register and
// snapshot finds its object's fold unchanged and returns the report it
// already published, allocating nothing.
func TestRepeatAuditAllocations(t *testing.T) {
	st := newTestStore(t)
	for _, kind := range []store.Kind{store.Register, store.MaxRegister, store.Snapshot} {
		name := kind.String()
		obj, err := st.Open(name, kind)
		if err != nil {
			t.Fatalf("Open(%s): %v", name, err)
		}
		for i := range 40 {
			if kind == store.Snapshot {
				err = obj.UpdateAt(i%obj.Components(), uint64(i)+1)
				_, _ = obj.Scan(i % st.Readers())
			} else {
				err = obj.Write(uint64(i) + 1)
				_, _ = obj.Read(i % st.Readers())
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		first, err := st.Audit(name)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if aud, err := st.Audit(name); err != nil || aud.Len() != first.Len() {
				t.Fatalf("repeat Audit(%s) = %d pairs, %v; want %d pairs", name, aud.Len(), err, first.Len())
			}
		}); n != 0 {
			t.Errorf("a repeat Audit of a quiescent %v allocates %.1f times, want 0", kind, n)
		}
	}
}

// TestSnapshotObjectAllocations pins a snapshot object's update at what
// Algorithm 3 publishes — S's cell and embedded view and the logged view; M
// holds a version number in place — and its silent scan at the copy it
// returns, through the object's handle slots and locks.
func TestSnapshotObjectAllocations(t *testing.T) {
	st := newTestStore(t)
	obj, err := st.Open("snap", store.Snapshot)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	v := uint64(0)
	update := func() {
		v++
		if err := obj.UpdateAt(1, v); err != nil {
			t.Fatal(err)
		}
	}
	update() // the handle, M's first history chunk, the log's first chunk
	if n := testing.AllocsPerRun(200, update); n > 3 {
		t.Errorf("UpdateAt allocates %.1f times, want <= 3", n)
	}
	if _, err := obj.Scan(2); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if view, _ := obj.Scan(2); view[1] != v {
			t.Fatalf("silent scan shows component 1 = %d, want %d", view[1], v)
		}
	}); n > 1 {
		t.Errorf("silent Scan allocates %.1f times, want <= 1 (the copy)", n)
	}
}

// TestCapacityRefusesTheWritePastIt fills each kind's history: the write
// after the last row is refused with ErrCapacity and leaves no trace (a max
// register's Peek included), a read still returns the last value written,
// and a fresh audit is exactly the reads observed.
func TestCapacityRefusesTheWritePastIt(t *testing.T) {
	const capacity = 1024
	for _, kind := range []store.Kind{store.Register, store.MaxRegister, store.Snapshot} {
		t.Run(kind.String(), func(t *testing.T) {
			st := newTestStore(t, store.WithCapacity[uint64](capacity))
			obj, err := st.Open("o", kind, store.WithObjectComponents(2))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			write := func(v uint64) error {
				if kind == store.Snapshot {
					return obj.UpdateAt(int(v%2), v)
				}
				return obj.Write(v)
			}
			observed := map[string]bool{}
			read := func(j int) []uint64 {
				t.Helper()
				if kind == store.Snapshot {
					view, err := obj.Scan(j)
					if err != nil {
						t.Fatalf("Scan(%d): %v", j, err)
					}
					observed[fmt.Sprint(j, view)] = true
					return view
				}
				v, err := obj.Read(j)
				if err != nil {
					t.Fatalf("Read(%d): %v", j, err)
				}
				observed[fmt.Sprint(j, v)] = true
				return []uint64{v}
			}
			for v := uint64(1); v <= capacity; v++ {
				if err := write(v); err != nil {
					t.Fatalf("write %d of %d: %v", v, capacity, err)
				}
				if v%100 == 0 {
					read(int(v/100) % 8)
				}
			}
			if err := write(capacity + 1); !errors.Is(err, store.ErrCapacity) {
				t.Fatalf("write %d: %v, want ErrCapacity", capacity+1, err)
			}
			if kind == store.MaxRegister {
				if v, err := obj.Peek(); err != nil || v != capacity {
					t.Fatalf("Peek after the refused write = (%d, %v), want (%d, nil)", v, err, capacity)
				}
			}
			last := fmt.Sprint([]uint64{capacity})
			if kind == store.Snapshot {
				last = fmt.Sprint([]uint64{capacity, capacity - 1})
			}
			if got := fmt.Sprint(read(7)); got != last {
				t.Fatalf("read after the refused write = %s, want %s", got, last)
			}
			read(3)
			aud, err := obj.Audit()
			if err != nil {
				t.Fatalf("Audit: %v", err)
			}
			audited := map[string]bool{}
			for _, e := range aud.Report.Entries() {
				audited[fmt.Sprint(e.Reader, e.Value)] = true
			}
			for _, e := range aud.Views {
				audited[fmt.Sprint(e.Reader, e.View)] = true
			}
			if aud.Len() != len(audited) || fmt.Sprint(audited) != fmt.Sprint(observed) {
				t.Fatalf("audit %v (%d pairs), observed %v", audited, aud.Len(), observed)
			}
		})
	}
}
