package maxreg_test

import (
	"sync"
	"testing"
	"testing/quick"

	"auditreg/internal/core"
	"auditreg/internal/maxreg"
	"auditreg/internal/otp"
	"auditreg/internal/probe"
	"auditreg/internal/shmem"
	"auditreg/internal/spec"
)

func lessU64(a, b uint64) bool { return a < b }

// The tests below drive Algorithm 2 — core.MaxRegister, which runs on this
// package's M — from here, over the default substrates and the references.

// newAuditable builds an auditable max register over uint64 with m readers.
func newAuditable(t *testing.T, m int, initial uint64, opts ...core.Option[uint64]) *core.MaxRegister[uint64] {
	t.Helper()
	pads, err := otp.NewKeyedPads(otp.KeyFromSeed(7), m)
	if err != nil {
		t.Fatalf("NewKeyedPads: %v", err)
	}
	reg, err := core.NewMaxRegister(m, initial, lessU64, pads, opts...)
	if err != nil {
		t.Fatalf("NewMaxRegister: %v", err)
	}
	return reg
}

func newWriter(t *testing.T, reg *core.MaxRegister[uint64], id uint8) *core.MaxWriter[uint64] {
	t.Helper()
	w, err := reg.Writer(otp.NewSeededNonces(uint64(id)+1, id))
	if err != nil {
		t.Fatalf("Writer: %v", err)
	}
	return w
}

func newAudReader(t *testing.T, reg *core.MaxRegister[uint64], j int, opts ...core.HandleOption) *core.Reader[uint64] {
	t.Helper()
	rd, err := reg.Reader(j, opts...)
	if err != nil {
		t.Fatalf("Reader(%d): %v", j, err)
	}
	return rd
}

func TestAuditableValidation(t *testing.T) {
	t.Parallel()
	pads, _ := otp.NewKeyedPads(otp.KeyFromSeed(1), 2)
	if _, err := core.NewMaxRegister[uint64](0, 0, lessU64, pads); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := core.NewMaxRegister[uint64](2, 0, nil, pads); err == nil {
		t.Error("nil less accepted")
	}
	if _, err := core.NewMaxRegister[uint64](2, 0, lessU64, nil); err == nil {
		t.Error("nil pads accepted")
	}
	reg := newAuditable(t, 2, 0)
	if _, err := reg.Reader(2); err == nil {
		t.Error("reader index m accepted")
	}
	if _, err := reg.Writer(nil); err == nil {
		t.Error("nil nonce source accepted")
	}
}

func TestAuditableMaxSemantics(t *testing.T) {
	t.Parallel()
	reg := newAuditable(t, 2, 0)
	w := newWriter(t, reg, 1)
	rd := newAudReader(t, reg, 0)

	if got := rd.Read(); got != 0 {
		t.Fatalf("initial read = %d", got)
	}
	if err := w.WriteMax(10); err != nil {
		t.Fatalf("WriteMax: %v", err)
	}
	if got := rd.Read(); got != 10 {
		t.Fatalf("read = %d, want 10", got)
	}
	// A smaller writeMax leaves the register unchanged.
	if err := w.WriteMax(4); err != nil {
		t.Fatalf("WriteMax: %v", err)
	}
	if got := rd.Read(); got != 10 {
		t.Fatalf("read after lower write = %d, want 10", got)
	}
	if err := w.WriteMax(11); err != nil {
		t.Fatalf("WriteMax: %v", err)
	}
	if got := rd.Read(); got != 11 {
		t.Fatalf("read = %d, want 11", got)
	}
}

func TestAuditableAuditMatchesSpec(t *testing.T) {
	t.Parallel()
	const m = 3
	reg := newAuditable(t, m, 0)
	oracle := spec.NewAuditableMax[uint64](0, lessU64)
	w := newWriter(t, reg, 1)
	auditor := reg.Auditor()
	readers := make([]*core.Reader[uint64], m)
	for j := range readers {
		readers[j] = newAudReader(t, reg, j)
	}

	script := []struct {
		op  string
		arg uint64
	}{
		{"r", 0}, {"a", 0},
		{"w", 5}, {"r", 1}, {"a", 0},
		{"w", 3}, {"r", 2}, // lower write: reader still sees 5
		{"a", 0},
		{"w", 9}, {"r", 0}, {"r", 0}, {"a", 0},
		{"w", 9}, {"r", 1}, {"a", 0}, // duplicate value via distinct nonce
	}
	for i, step := range script {
		switch step.op {
		case "r":
			got := readers[step.arg].Read()
			want := oracle.Read(int(step.arg))
			if got != want {
				t.Fatalf("step %d: read by %d = %d, want %d", i, step.arg, got, want)
			}
		case "w":
			if err := w.WriteMax(step.arg); err != nil {
				t.Fatalf("step %d: writeMax: %v", i, err)
			}
			oracle.WriteMax(step.arg)
		case "a":
			got, err := auditor.Audit()
			if err != nil {
				t.Fatalf("step %d: audit: %v", i, err)
			}
			if !got.Equal(oracle.Audit()) {
				t.Fatalf("step %d: audit = %v, want %v", i, got, oracle.Audit())
			}
		}
	}
}

func TestAuditableLockedBackendCrossCheck(t *testing.T) {
	t.Parallel()
	const m = 2
	pads, _ := otp.NewKeyedPads(otp.KeyFromSeed(7), m)
	init := core.Nonced[uint64]{Val: 0, Nonce: 0}
	locked := shmem.NewLockedTriple(shmem.Triple[uint64]{Bits: pads.Mask(0)})
	reg, err := core.NewMaxRegister(m, 0, lessU64, pads,
		core.WithTripleReg[uint64](locked),
		core.WithSeqReg[uint64](&shmem.LockedSeq{}),
		core.WithM[uint64](maxreg.NewLockedMax(init, lessNonced)),
	)
	if err != nil {
		t.Fatalf("NewMaxRegister: %v", err)
	}
	w, err := reg.Writer(otp.NewSeededNonces(3, 1))
	if err != nil {
		t.Fatalf("Writer: %v", err)
	}
	rd, err := reg.Reader(0)
	if err != nil {
		t.Fatalf("Reader: %v", err)
	}
	for _, v := range []uint64{4, 2, 8, 8, 16} {
		if err := w.WriteMax(v); err != nil {
			t.Fatalf("WriteMax(%d): %v", v, err)
		}
	}
	if got := rd.Read(); got != 16 {
		t.Fatalf("read = %d, want 16", got)
	}
	rep, err := reg.Auditor().Audit()
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if !rep.Contains(0, 16) {
		t.Fatalf("audit %v missing (0, 16)", rep)
	}
}

func TestAuditableSilentReadSkipsSharedMemory(t *testing.T) {
	t.Parallel()
	reg := newAuditable(t, 2, 5)
	counter := probe.NewCounter()
	rd := newAudReader(t, reg, 1, core.WithProbe(counter.Probe()))

	rd.Read()
	rd.Read()
	rd.Read()
	if got := counter.Invokes[probe.RXor]; got != 1 {
		t.Fatalf("fetch&xor count = %d, want 1 (silent reads)", got)
	}

	// A lower writeMax does not change R's value but may advance its
	// sequence number; a subsequent read must still return the max.
	w := newWriter(t, reg, 1)
	if err := w.WriteMax(3); err != nil {
		t.Fatalf("WriteMax: %v", err)
	}
	if got := rd.Read(); got != 5 {
		t.Fatalf("read = %d, want 5", got)
	}
}

// TestQuickAuditableMatchesSpec replays random sequential scripts against the
// implementation and the sequential specification.
func TestQuickAuditableMatchesSpec(t *testing.T) {
	t.Parallel()
	type opCode struct {
		Kind   uint8
		Reader uint8
		Value  uint16
	}
	f := func(ops []opCode, seed uint64) bool {
		const m = 4
		pads, err := otp.NewKeyedPads(otp.KeyFromSeed(seed), m)
		if err != nil {
			return false
		}
		reg, err := core.NewMaxRegister[uint64](m, 0, lessU64, pads)
		if err != nil {
			return false
		}
		oracle := spec.NewAuditableMax[uint64](0, lessU64)
		w, err := reg.Writer(otp.NewSeededNonces(seed, 9))
		if err != nil {
			return false
		}
		auditor := reg.Auditor()
		readers := make([]*core.Reader[uint64], m)
		for j := range readers {
			rd, err := reg.Reader(j)
			if err != nil {
				return false
			}
			readers[j] = rd
		}
		for _, op := range ops {
			switch op.Kind % 3 {
			case 0:
				j := int(op.Reader) % m
				if readers[j].Read() != oracle.Read(j) {
					return false
				}
			case 1:
				if err := w.WriteMax(uint64(op.Value)); err != nil {
					return false
				}
				oracle.WriteMax(uint64(op.Value))
			case 2:
				rep, err := auditor.Audit()
				if err != nil {
					return false
				}
				if !rep.Equal(oracle.Audit()) {
					return false
				}
			}
		}
		rep, err := reg.Auditor().Audit()
		if err != nil {
			return false
		}
		return rep.Equal(oracle.Audit())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAuditableConcurrent verifies the quiescent audit-equivalence property
// and read monotonicity under concurrent writers, readers, and auditors, over
// each M.
func TestAuditableConcurrent(t *testing.T) {
	t.Parallel()
	for name, opts := range mBackends {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			testAuditableConcurrent(t, newAuditable(t, 6, 0, opts()...))
		})
	}
}

func testAuditableConcurrent(t *testing.T, reg *core.MaxRegister[uint64]) {
	const (
		m       = 6
		writers = 3
		perProc = 150
	)

	var wg sync.WaitGroup
	returned := make([]map[uint64]struct{}, m)
	for j := 0; j < m; j++ {
		j := j
		returned[j] = make(map[uint64]struct{})
		rd := newAudReader(t, reg, j)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for i := 0; i < perProc; i++ {
				v := rd.Read()
				if v < last {
					t.Errorf("reader %d: max regressed %d -> %d", j, last, v)
					return
				}
				last = v
				returned[j][v] = struct{}{}
			}
		}()
	}
	for i := 0; i < writers; i++ {
		i := i
		w := newWriter(t, reg, uint8(i+1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perProc; k++ {
				if err := w.WriteMax(uint64(k*writers + i)); err != nil {
					t.Errorf("writeMax: %v", err)
					return
				}
			}
		}()
	}
	aud := reg.Auditor()
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := 0
		for i := 0; i < 40; i++ {
			rep, err := aud.Audit()
			if err != nil {
				t.Errorf("audit: %v", err)
				return
			}
			if rep.Len() < prev {
				t.Errorf("audit shrank")
				return
			}
			prev = rep.Len()
		}
	}()
	wg.Wait()

	final, err := reg.Auditor().Audit()
	if err != nil {
		t.Fatalf("final audit: %v", err)
	}
	for j := 0; j < m; j++ {
		for v := range returned[j] {
			if !final.Contains(j, v) {
				t.Fatalf("read (%d, %d) returned but not audited", j, v)
			}
		}
	}
	for _, e := range final.Entries() {
		if _, ok := returned[e.Reader][e.Value]; !ok {
			t.Fatalf("audited pair (%d, %v) was never read", e.Reader, e.Value)
		}
	}
}

// TestAuditableWriteMaxRetryBounded: with a single writer and m readers the
// writeMax loop is bounded (Lemma 28): value in R changes at most once after
// M holds w, and each reader defeats the CAS at most once per seq.
func TestAuditableWriteMaxRetryBounded(t *testing.T) {
	t.Parallel()
	const m = 6
	reg := newAuditable(t, m, 0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for j := 0; j < m; j++ {
		rd := newAudReader(t, reg, j)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					rd.Read()
				}
			}
		}()
	}

	counter := probe.NewCounter()
	w, err := reg.Writer(otp.NewSeededNonces(4, 2), core.WithProbe(counter.Probe()))
	if err != nil {
		t.Fatalf("Writer: %v", err)
	}
	maxIter := 0
	for i := 0; i < 200; i++ {
		before := counter.Invokes[probe.RRead]
		if err := w.WriteMax(uint64(i + 1)); err != nil {
			t.Fatalf("writeMax: %v", err)
		}
		if it := counter.Invokes[probe.RRead] - before; it > maxIter {
			maxIter = it
		}
	}
	close(stop)
	wg.Wait()

	// Single writer: one iteration may be lost to the at-most-one value
	// change after M.writeMax, plus m reader interferences, plus the
	// successful one.
	if bound := m + 2; maxIter > bound {
		t.Fatalf("writeMax loop ran %d iterations, want <= %d", maxIter, bound)
	}
	t.Logf("max writeMax-loop iterations observed: %d", maxIter)
}
