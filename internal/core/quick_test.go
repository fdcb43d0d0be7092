package core_test

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"auditreg/internal/core"
	"auditreg/internal/otp"
	"auditreg/internal/spec"
)

// opCode drives the random sequential scripts of the property tests.
type opCode struct {
	Kind   uint8  // interpreted mod 3: 0 read, 1 write, 2 audit
	Reader uint8  // interpreted mod m
	Value  uint16 // write payload
}

// TestQuickSequentialEquivalence replays random operation scripts against the
// implementation (all backends) and the sequential specification; under a
// sequential schedule the two must agree on every response.
func TestQuickSequentialEquivalence(t *testing.T) {
	t.Parallel()
	for _, backend := range backends {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			f := func(ops []opCode, seed uint64) bool {
				const m = 5
				reg := newReg(t, backend, m, 0)
				oracle := spec.NewAuditableRegister[uint64](0)
				readers := make([]*core.Reader[uint64], m)
				for j := range readers {
					readers[j] = mustReader(t, reg, j)
				}
				w := reg.Writer()
				auditor := reg.Auditor()
				for _, op := range ops {
					switch op.Kind % 3 {
					case 0:
						j := int(op.Reader) % m
						if readers[j].Read() != oracle.Read(j) {
							return false
						}
					case 1:
						if err := w.Write(uint64(op.Value)); err != nil {
							return false
						}
						oracle.Write(uint64(op.Value))
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
				// Final audit by a fresh auditor must reconstruct
				// the full read history from B/V alone.
				rep, err := reg.Auditor().Audit()
				if err != nil {
					return false
				}
				return rep.Equal(oracle.Audit())
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQuickPadsDoNotAffectSemantics: the observable read/write/audit
// behaviour is identical under keyed pads, fixed pads, and zero pads — the
// pad only changes what a curious reader can infer, never what honest
// operations return.
func TestQuickPadsDoNotAffectSemantics(t *testing.T) {
	t.Parallel()
	f := func(ops []opCode, seed uint64) bool {
		const m = 4
		keyed, err := otp.NewKeyedPads(otp.KeyFromSeed(seed), m)
		if err != nil {
			return false
		}
		fixed, err := otp.NewFixedPads(0xA, 0x5, 0xF, 0x3)
		if err != nil {
			return false
		}
		sources := []otp.PadSource{keyed, fixed, otp.ZeroPads{}}

		type world struct {
			reg     *core.Register[uint64]
			readers []*core.Reader[uint64]
			auditor *core.Auditor[uint64]
		}
		worlds := make([]world, len(sources))
		for i, src := range sources {
			reg, err := core.New[uint64](m, 0, src)
			if err != nil {
				return false
			}
			w := world{reg: reg, auditor: reg.Auditor()}
			for j := 0; j < m; j++ {
				rd, err := reg.Reader(j)
				if err != nil {
					return false
				}
				w.readers = append(w.readers, rd)
			}
			worlds[i] = w
		}

		for _, op := range ops {
			switch op.Kind % 3 {
			case 0:
				j := int(op.Reader) % m
				v0 := worlds[0].readers[j].Read()
				for _, w := range worlds[1:] {
					if w.readers[j].Read() != v0 {
						return false
					}
				}
			case 1:
				for _, w := range worlds {
					if err := w.reg.Write(uint64(op.Value)); err != nil {
						return false
					}
				}
			case 2:
				r0, err := worlds[0].auditor.Audit()
				if err != nil {
					return false
				}
				for _, w := range worlds[1:] {
					r, err := w.auditor.Audit()
					if err != nil {
						return false
					}
					if !r.Equal(r0) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRandomConcurrencyQuiescentAudit drives randomized concurrent
// workloads (sizes drawn from the quick generator) and checks the quiescent
// audit-equivalence property of Lemmas 3/5/24.
func TestQuickRandomConcurrencyQuiescentAudit(t *testing.T) {
	t.Parallel()
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		m := 1 + rng.IntN(8)
		writers := 1 + rng.IntN(4)
		perProc := 20 + rng.IntN(80)

		reg := newReg(t, "ptr", m, 0)
		type result struct {
			j    int
			vals map[uint64]struct{}
		}
		results := make(chan result, m)
		done := make(chan struct{})

		for j := 0; j < m; j++ {
			j := j
			rd := mustReader(t, reg, j)
			go func() {
				vals := make(map[uint64]struct{})
				for i := 0; i < perProc; i++ {
					vals[rd.Read()] = struct{}{}
				}
				results <- result{j: j, vals: vals}
			}()
		}
		go func() {
			defer close(done)
			var err error
			for i := 0; i < writers; i++ {
				w := reg.Writer()
				for k := 0; k < perProc && err == nil; k++ {
					err = w.Write(uint64(i*perProc+k+1) & 0xffff)
				}
			}
		}()

		returned := make([]map[uint64]struct{}, m)
		for i := 0; i < m; i++ {
			r := <-results
			returned[r.j] = r.vals
		}
		<-done

		rep, err := reg.Auditor().Audit()
		if err != nil {
			return false
		}
		for j := 0; j < m; j++ {
			for v := range returned[j] {
				if !rep.Contains(j, v) {
					return false
				}
			}
		}
		for _, e := range rep.Entries() {
			if _, ok := returned[e.Reader][e.Value]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
