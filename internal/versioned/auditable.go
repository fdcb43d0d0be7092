package versioned

import (
	"fmt"

	"auditreg/internal/core"
	"auditreg/internal/otp"
)

// Out is the value type the transform writes to the auditable max register:
// the observation tagged with the version number that totally orders it.
type Out[O comparable] struct {
	// VN is the version number of the state the observation was taken at.
	VN uint64
	// Val is the observation f(q).
	Val O
}

// Auditable is the auditable variant of a versioned type (Theorem 13): it
// provides update, read, and audit, where audits report exactly the
// effective reads, and reads/updates are uncompromised by readers.
//
// Construct with NewAuditable.
type Auditable[I any, O comparable] struct {
	base Base[I, O]
	mreg *core.MaxRegister[Out[O]]
}

// NewAuditable wraps the versioned implementation base (whose current version
// must be 0) into an auditable object for m readers.
func NewAuditable[I any, O comparable](m int, base Base[I, O], pads otp.PadSource) (*Auditable[I, O], error) {
	if base == nil {
		return nil, fmt.Errorf("versioned: base implementation must not be nil")
	}
	o0, vn0 := base.Read()
	if vn0 != 0 {
		return nil, fmt.Errorf("versioned: base must start at version 0, got %d", vn0)
	}
	mreg, err := core.NewMaxRegister(m, Out[O]{VN: 0, Val: o0},
		func(a, b Out[O]) bool { return a.VN < b.VN }, pads)
	if err != nil {
		return nil, err
	}
	return &Auditable[I, O]{base: base, mreg: mreg}, nil
}

// Readers returns the number of readers m.
func (reg *Auditable[I, O]) Readers() int { return reg.mreg.Readers() }

// AuditableUpdater is the per-process update handle. Not safe for concurrent
// use; create one per updating process.
type AuditableUpdater[I any, O comparable] struct {
	reg *Auditable[I, O]
	mw  *core.MaxWriter[Out[O]]
}

// Updater returns an update handle drawing nonces from the given source.
func (reg *Auditable[I, O]) Updater(nonces otp.NonceSource, opts ...core.HandleOption) (*AuditableUpdater[I, O], error) {
	mw, err := reg.mreg.Writer(nonces, opts...)
	if err != nil {
		return nil, err
	}
	return &AuditableUpdater[I, O]{reg: reg, mw: mw}, nil
}

// Update applies an update with input v: advance the versioned base, read
// back the (observation, version) pair, and publish it to M.
func (u *AuditableUpdater[I, O]) Update(v I) error {
	u.reg.base.Update(v)
	o, vn := u.reg.base.Read()
	return u.mw.WriteMax(Out[O]{VN: vn, Val: o})
}

// AuditableReader is the per-process read handle. Not safe for concurrent
// use.
type AuditableReader[I any, O comparable] struct {
	mr *core.Reader[Out[O]]
	j  int
}

// Reader returns the handle for reader j (0 <= j < m).
func (reg *Auditable[I, O]) Reader(j int, opts ...core.HandleOption) (*AuditableReader[I, O], error) {
	mr, err := reg.mreg.Reader(j, opts...)
	if err != nil {
		return nil, err
	}
	return &AuditableReader[I, O]{mr: mr, j: j}, nil
}

// Index returns the reader's index j.
func (rd *AuditableReader[I, O]) Index() int { return rd.j }

// Read returns the observation of the latest published state.
func (rd *AuditableReader[I, O]) Read() O { return rd.mr.Read().Val }

// ReadVersioned returns the observation together with its version number.
func (rd *AuditableReader[I, O]) ReadVersioned() (O, uint64) {
	out := rd.mr.Read()
	return out.Val, out.VN
}

// AuditableAuditor is the per-process audit handle.
type AuditableAuditor[I any, O comparable] struct {
	ma *core.Auditor[Out[O]]
}

// Auditor returns an auditor handle with its own cumulative audit set.
func (reg *Auditable[I, O]) Auditor(opts ...core.HandleOption) *AuditableAuditor[I, O] {
	return &AuditableAuditor[I, O]{ma: reg.mreg.Auditor(opts...)}
}

// Audit reports the set of (reader, observation) pairs such that the reader
// has an effective read of the observation, with version numbers stripped.
func (a *AuditableAuditor[I, O]) Audit() (core.Report[O], error) {
	rep, err := a.ma.Audit()
	if err != nil {
		return core.Report[O]{}, err
	}
	entries := make([]core.Entry[O], 0, rep.Len())
	for _, e := range rep.Entries() {
		entries = append(entries, core.Entry[O]{Reader: e.Reader, Value: e.Value.Val})
	}
	return core.NewReport(entries...), nil
}
