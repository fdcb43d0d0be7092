// Package auditreg is a Go implementation of "Auditing without Leaks Despite
// Curiosity" (Attiya, Fernández Anta, Milani, Rapetti, Travers — PODC 2025):
// wait-free, linearizable auditable shared objects that track who effectively
// read which value, without leaking those accesses — or unread values — to
// curious readers.
//
// # Objects
//
//   - Register (Algorithm 1): a multi-writer multi-reader register whose
//     Audit reports exactly the effective reads. A read is auditable from the
//     instant the reader could know the value, so a process cannot learn a
//     value and dodge the audit by stopping early.
//   - MaxRegister (Algorithm 2): an auditable max register; random nonces
//     prevent readers from inferring intermediate writes from sequence gaps.
//   - Snapshot (Algorithm 3): an auditable atomic snapshot built from a max
//     register and a wait-free snapshot substrate.
//   - Versioned (Theorem 13): a transform making any versioned type (counter,
//     logical clock, register, histogram, ...) auditable.
//
// # Roles and secrets
//
// Access logs are encrypted with one-time pads derived from a shared secret
// Key. Writers and auditors hold the key; readers must not. Each process uses
// its own handle (Reader, Writer, Auditor): handles are cheap, carry the
// per-process protocol state, and are not safe for concurrent use, while the
// underlying objects are.
//
// # Quick start
//
//	key, _ := auditreg.NewKey()
//	pads, _ := auditreg.NewKeyedPads(key, 4) // 4 readers
//	reg, _ := auditreg.NewRegister(4, "v0", pads)
//
//	rd, _ := reg.Reader(0)
//	_ = reg.Write("v1")
//	fmt.Println(rd.Read()) // "v1"
//
//	rep, _ := reg.Auditor().Audit()
//	fmt.Println(rep) // {(0, v1)}
//
// See examples/ for complete programs and DESIGN.md for the system
// inventory. To host many named auditable objects behind one API — with
// sharded lookup and batched asynchronous auditing — see package
// auditreg/store.
package auditreg

import (
	"auditreg/internal/core"
	"auditreg/internal/maxreg"
	"auditreg/internal/otp"
	"auditreg/internal/snapshot"
	"auditreg/internal/unbounded"
	"auditreg/internal/versioned"
)

// MaxReaders is the largest supported number of readers per object (the
// tracking bits live in one 64-bit word, as in the paper's register R).
const MaxReaders = core.MaxReaders

// Key is the 256-bit shared secret of writers and auditors.
type Key = otp.Key

// PadSource yields the per-sequence-number one-time pads.
type PadSource = otp.PadSource

// NonceSource yields the nonces of max-register writes.
type NonceSource = otp.NonceSource

// NewKey returns a fresh random key.
func NewKey() (Key, error) { return otp.NewKey() }

// KeyFromSeed derives a key deterministically; for tests and reproducible
// experiments only.
func KeyFromSeed(seed uint64) Key { return otp.KeyFromSeed(seed) }

// NewKeyedPads returns the pad source for m readers backed by key: one
// SHA-256 digest per pad lookup.
func NewKeyedPads(key Key, m int) (PadSource, error) { return otp.NewKeyedPads(key, m) }

// NewBlockPads returns the block-derived pad source for m readers backed by
// key: one SHA-256 digest yields four consecutive pads, served through a
// lock-free window cache. Prefer it on write- or audit-heavy workloads; it is
// as strong as NewKeyedPads but derives a different pad sequence from the
// same key.
func NewBlockPads(key Key, m int) (PadSource, error) { return otp.NewBlockPads(key, m) }

// NewSeededNonces returns a deterministic nonce source for the writer with
// the given 8-bit owner id.
func NewSeededNonces(seed uint64, owner uint8) NonceSource {
	return otp.NewSeededNonces(seed, owner)
}

// NewCryptoNonces returns a cryptographically random nonce source.
func NewCryptoNonces(owner uint8) NonceSource { return otp.NewCryptoNonces(owner) }

// Register is the auditable multi-writer multi-reader register (Algorithm 1).
type Register[V comparable] = core.Register[V]

// Reader is a per-process read handle of a Register or a MaxRegister.
type Reader[V comparable] = core.Reader[V]

// Writer is a per-process write handle of a Register.
type Writer[V comparable] = core.Writer[V]

// Auditor is a per-process audit handle of a Register or a MaxRegister.
type Auditor[V comparable] = core.Auditor[V]

// Entry is one audited access: reader j read Value.
type Entry[V comparable] = core.Entry[V]

// Report is an audit response: a set of Entry values.
type Report[V comparable] = core.Report[V]

// NewReport builds a report from explicit entries, deduplicated, preserving
// first occurrence order. Producers that reconstruct reports — tests,
// specifications, the network client unmasking an audit response — use it to
// obtain a Report comparable with Report.Equal.
func NewReport[V comparable](entries ...Entry[V]) Report[V] { return core.NewReport(entries...) }

// HandleOption configures a process handle (instrumentation probe, pid).
type HandleOption = core.HandleOption

// RegisterOption configures a Register.
type RegisterOption[V comparable] = core.Option[V]

// NewRegister returns an auditable register for m readers holding initial.
// The pads embody the writer/auditor secret; never hand them to readers.
func NewRegister[V comparable](m int, initial V, pads PadSource, opts ...RegisterOption[V]) (*Register[V], error) {
	return core.New(m, initial, pads, opts...)
}

// ErrCapacity reports a write past the end of an object's audit history,
// refused before anything a read or an audit sees changed; reads and audits
// carry on. Errors are wrapped; test with errors.Is.
var ErrCapacity = unbounded.ErrCapacity

// WithCapacity bounds the auditable history of a Register to n installed
// writes, rounded up to a multiple of 1,024 (0: 16 Mi). The write after them
// is refused with ErrCapacity. Nothing is allocated for the bound: the
// history allocates as its rows are written.
func WithCapacity[V comparable](n int) RegisterOption[V] { return core.WithCapacity[V](n) }

// MaxRegister is the auditable max register (Algorithm 2): Algorithm 1's
// register with a different write, so its read and audit handles are the
// Register's.
type MaxRegister[V comparable] = core.MaxRegister[V]

// MaxReader is a per-process read handle of a MaxRegister: the same type as
// Reader.
type MaxReader[V comparable] = core.Reader[V]

// MaxWriter is a per-process writeMax handle of a MaxRegister.
type MaxWriter[V comparable] = core.MaxWriter[V]

// MaxAuditor is a per-process audit handle of a MaxRegister: the same type
// as Auditor.
type MaxAuditor[V comparable] = core.Auditor[V]

// Less is a strict total order on V.
type Less[V any] = maxreg.Less[V]

// MaxRegisterOption configures a MaxRegister: the same type as
// RegisterOption.
type MaxRegisterOption[V comparable] = core.Option[V]

// WithMaxCapacity is WithCapacity under the name max-register callers know.
// A full history refuses a writeMax before the substrate M sees it, so Peek
// stays at the last value written. Only a writeMax that loses the last row
// to a concurrent one can be refused with its value already in M, which
// Peek then reports; no read or audit ever does.
func WithMaxCapacity[V comparable](n int) MaxRegisterOption[V] { return core.WithCapacity[V](n) }

// NewMaxRegister returns an auditable max register for m readers holding
// initial, ordered by less.
func NewMaxRegister[V comparable](m int, initial V, less Less[V], pads PadSource, opts ...MaxRegisterOption[V]) (*MaxRegister[V], error) {
	return core.NewMaxRegister(m, initial, less, pads, opts...)
}

// Snapshot is the auditable atomic snapshot (Algorithm 3).
type Snapshot[V comparable] = snapshot.Auditable[V]

// SnapshotUpdater is the single-writer update handle of one component.
type SnapshotUpdater[V comparable] = snapshot.SnapUpdater[V]

// SnapshotScanner is a per-process scan handle.
type SnapshotScanner[V comparable] = snapshot.SnapScanner[V]

// SnapshotAuditor is a per-process audit handle.
type SnapshotAuditor[V comparable] = snapshot.SnapAuditor[V]

// ViewEntry is one audited scan: Reader obtained View.
type ViewEntry[V comparable] = snapshot.ViewEntry[V]

// SnapshotOption configures a Snapshot.
type SnapshotOption[V comparable] = snapshot.AuditableOption[V]

// WithSnapshotCapacity bounds a Snapshot's audit history, and its log of
// views with it, to n updates, rounded up to a multiple of 1,024; the next is
// refused with ErrCapacity and no scan or audit sees it. Nothing is allocated
// for the bound: history and log allocate as updates reach them.
func WithSnapshotCapacity[V comparable](n int) SnapshotOption[V] {
	return snapshot.WithSnapshotCapacity[V](n)
}

// NewSnapshot returns an auditable snapshot with n single-writer components
// and m scanners, every component holding initial.
func NewSnapshot[V comparable](n, m int, initial V, pads PadSource, opts ...SnapshotOption[V]) (*Snapshot[V], error) {
	return snapshot.NewAuditable(n, m, initial, pads, opts...)
}

// ContainsView reports whether an audit's entries include (reader, view).
func ContainsView[V comparable](entries []ViewEntry[V], reader int, view []V) bool {
	return snapshot.ContainsView(entries, reader, view)
}

// VersionedType is the sequential specification tuple (Q, q0, I, O, f, g) of
// a versioned type.
type VersionedType[Q, I, O any] = versioned.Type[Q, I, O]

// VersionedBase is a linearizable versioned implementation.
type VersionedBase[I, O any] = versioned.Base[I, O]

// Versioned is the auditable variant of a versioned type (Theorem 13).
type Versioned[I any, O comparable] = versioned.Auditable[I, O]

// VersionedUpdater is a per-process update handle.
type VersionedUpdater[I any, O comparable] = versioned.AuditableUpdater[I, O]

// VersionedReader is a per-process read handle.
type VersionedReader[I any, O comparable] = versioned.AuditableReader[I, O]

// NewVersionedBase returns a lock-free versioned implementation of t.
func NewVersionedBase[Q, I, O any](t VersionedType[Q, I, O]) *versioned.CASBase[Q, I, O] {
	return versioned.NewCAS(t)
}

// NewVersioned wraps a versioned base (at version 0) into an auditable object
// for m readers.
func NewVersioned[I any, O comparable](m int, base VersionedBase[I, O], pads PadSource) (*Versioned[I, O], error) {
	return versioned.NewAuditable(m, base, pads)
}

// CounterType is a monotone counter versioned type.
func CounterType() VersionedType[uint64, struct{}, uint64] { return versioned.CounterType() }

// LamportClockType is a Lamport logical clock versioned type.
func LamportClockType() VersionedType[uint64, uint64, uint64] { return versioned.LamportClockType() }

// RegisterType is an overwriting register versioned type.
func RegisterType[V any](initial V) VersionedType[V, V, V] { return versioned.RegisterType(initial) }
