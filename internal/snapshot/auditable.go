package snapshot

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"unsafe"

	"auditreg/internal/core"
	"auditreg/internal/handle"
	"auditreg/internal/otp"
	"auditreg/internal/probe"
	"auditreg/internal/unbounded"
)

// Store is the substrate snapshot interface of Algorithm 3: any linearizable,
// wait-free snapshot object (Afek by default, Locked for cross-checking), as
// Algorithm 3 reaches it — through its writers' handles.
type Store[V any] interface {
	// Updater returns component i's writer handle (single writer per
	// component: one goroutine at a time uses it).
	Updater(i int) (StoreUpdater[V], error)
}

// StoreUpdater is one component's writer handle on a Store. The writer also
// scans through it, so that the scan can work in memory the handle owns.
type StoreUpdater[V any] interface {
	// Update sets the component to v.
	Update(v V)
	// ScanInto writes an atomic view of all components into dst, which
	// has length n.
	ScanInto(dst []V)
}

var (
	_ Store[int] = (*Afek[int])(nil)
	_ Store[int] = (*Locked[int])(nil)
)

// comp is a component of the substrate S: the user value tagged with the
// writer's local sequence number sn_i (Algorithm 3 line 2). The sum of the
// tags over a view is the view's unique, increasing version number.
type comp[V comparable] struct {
	sn  uint64
	val V
}

// ViewEntry is one audited snapshot access: the scanner and the view it
// effectively obtained.
type ViewEntry[V comparable] struct {
	// Reader is the scanner's index.
	Reader int
	// View is the snapshot view it read.
	View []V
}

// Auditable is the auditable n-component snapshot of Algorithm 3, built from
// a non-auditable snapshot S and an auditable max register M (Algorithm 2).
//
// Guarantees (Theorem 12): linearizable; audits report exactly the effective
// scans; scans are uncompromised by other scanners; updates are uncompromised
// by scanners. Wait-free but for package core's seqlock trade, which M takes
// since it holds a word: a preempted mutator briefly delays others' steps.
//
// Construct with NewAuditable.
type Auditable[V comparable] struct {
	n    int
	m    int
	s    Store[comp[V]]
	mreg *core.MaxRegister[uint64]
	init []V // the view of vn 0, outside the log: opening allocates no block
	// views holds the views Algorithm 3 publishes, &data[0] of n
	// components, by version number; M holds the number alone. A row is set
	// once, by CAS from nil, before its vn reaches M. Two updaters whose scans
	// returned one vn saw one state of S (the sum of the tags grows by one per
	// update), so the CAS's loser loses nothing.
	views *unbounded.Log[V]
}

// AuditableOption configures an auditable snapshot.
type AuditableOption[V comparable] func(*auditableConfig[V])

type auditableConfig[V comparable] struct {
	locked   bool
	capacity int
}

// WithLockedStore substitutes the mutex-based reference snapshot for the
// Afek substrate (cross-checking, benchmarks).
func WithLockedStore[V comparable]() AuditableOption[V] {
	return func(c *auditableConfig[V]) { c.locked = true }
}

// WithSnapshotCapacity bounds the audit history of the underlying max
// register, and the view log with it: an update takes one row, and the one
// past the last row is refused, before S sees it, with an error wrapping
// unbounded.ErrCapacity. Neither history nor log is allocated up front.
func WithSnapshotCapacity[V comparable](n int) AuditableOption[V] {
	return func(c *auditableConfig[V]) { c.capacity = n }
}

// NewAuditable returns an auditable snapshot with n components (one designated
// updater each) and m scanners, every component holding initial.
func NewAuditable[V comparable](n, m int, initial V, pads otp.PadSource, opts ...AuditableOption[V]) (*Auditable[V], error) {
	if n < 1 {
		return nil, fmt.Errorf("snapshot: component count must be positive, got %d", n)
	}
	var cfg auditableConfig[V]
	for _, opt := range opts {
		opt(&cfg)
	}

	var store Store[comp[V]]
	var err error
	if cfg.locked {
		store, err = NewLocked(n, comp[V]{sn: 0, val: initial})
	} else {
		store, err = NewAfek(n, comp[V]{sn: 0, val: initial})
	}
	if err != nil {
		return nil, err
	}

	initData := make([]V, n)
	for i := range initData {
		initData[i] = initial
	}
	mreg, err := core.NewMaxRegister(m, 0, func(a, b uint64) bool { return a < b }, pads, core.WithCapacity[uint64](cfg.capacity))
	if err != nil {
		return nil, err
	}
	// An update returns only past a raise of M made during it, and a raise falls
	// within one update per component at most: vn <= n·(rows+1) until M overflows.
	rows := unbounded.Slots(cfg.capacity)
	return &Auditable[V]{n: n, m: m, s: store, mreg: mreg, init: initData, views: unbounded.NewLog[V](n * (rows + 1))}, nil
}

// viewAt returns the view published under vn. M holds no vn whose view was
// not published first. Read-only.
func (reg *Auditable[V]) viewAt(vn uint64) []V {
	if vn == 0 {
		return reg.init
	}
	return unsafe.Slice(reg.views.Load(vn), reg.n)
}

// Components returns the number of components n.
func (reg *Auditable[V]) Components() int { return reg.n }

// Scanners returns the number of scanners m.
func (reg *Auditable[V]) Scanners() int { return reg.m }

// SnapUpdater is the single-writer update handle for one component
// (Algorithm 3 lines 1-5). Not safe for concurrent use.
type SnapUpdater[V comparable] struct {
	i     int
	sn    uint64
	s     StoreUpdater[comp[V]]
	sview []comp[V] // line 3's scan result; looked at, never published
	views *unbounded.Log[V]
	mw    *core.MaxWriter[uint64]
	pid   int
	probe probe.Probe
}

// Updater returns the update handle for component i. Nonces feed the
// underlying auditable max register's writeMax.
func (reg *Auditable[V]) Updater(i int, nonces otp.NonceSource, opts ...core.HandleOption) (*SnapUpdater[V], error) {
	if i < 0 || i >= reg.n {
		return nil, fmt.Errorf("snapshot: component %d out of range [0, %d)", i, reg.n)
	}
	cfg := handle.Apply(i, opts)
	mw, err := reg.mreg.Writer(nonces, core.WithPID(cfg.PID), core.WithProbe(cfg.Probe))
	if err != nil {
		return nil, err
	}
	s, err := reg.s.Updater(i)
	if err != nil {
		return nil, err
	}
	// sn_i resumes from the component's tag in S: a handle that restarted
	// it at 0 would publish version numbers M has already passed, and M
	// would drop its views.
	sview := make([]comp[V], reg.n)
	s.ScanInto(sview)
	return &SnapUpdater[V]{i: i, sn: sview[i].sn, s: s, sview: sview, views: reg.views, mw: mw, pid: cfg.PID, probe: cfg.Probe}, nil
}

// Component returns the component index this handle updates.
func (u *SnapUpdater[V]) Component() int { return u.i }

// Update sets component i to v: bump the local sequence number, install the
// tagged value in S, scan S, publish the view under its version number, and
// raise M to that number (lines 2-5).
func (u *SnapUpdater[V]) Update(v V) error {
	// A full history refuses the update before S sees it: a refused update
	// leaves S, and sn_i with it, as it was. A concurrent update can still
	// take M's last row between this check and line 5 (DESIGN.md, "History
	// capacity").
	if err := u.mw.Room(); err != nil {
		return err
	}

	// Line 2: sn_i++ ; S.update_i((sn_i, v)).
	u.sn++
	u.probe.Emit(probe.Event{PID: u.pid, Kind: probe.Invoke, Prim: probe.SUpdate})
	u.s.Update(comp[V]{sn: u.sn, val: v})
	u.probe.Emit(probe.Event{PID: u.pid, Kind: probe.Return, Prim: probe.SUpdate})

	// Line 3: sview <- S.scan(); vn <- sum of sequence tags.
	u.probe.Emit(probe.Event{PID: u.pid, Kind: probe.Invoke, Prim: probe.SScan})
	u.s.ScanInto(u.sview)
	u.probe.Emit(probe.Event{PID: u.pid, Kind: probe.Return, Prim: probe.SScan})

	var vn uint64
	for _, c := range u.sview {
		vn += c.sn
	}
	slot := u.views.Slot(vn)
	if slot == nil {
		return fmt.Errorf("snapshot: version %d beyond the view log's capacity: %w", vn, unbounded.ErrCapacity)
	}
	// The stripped view is what scanners and auditors keep: the one thing
	// this update allocates itself, unless another updater published vn.
	// It is published before vn reaches M, so whoever reads vn finds it.
	if slot.Load() == nil {
		data := make([]V, len(u.sview))
		for k, c := range u.sview {
			data[k] = c.val // line 4: strip the tags
		}
		slot.CompareAndSwap(nil, &data[0])
	}

	// Line 5: M.writeMax((vn, view)), the view being the one under vn.
	return u.mw.WriteMax(vn)
}

// SnapScanner is the per-process scan handle (Algorithm 3 lines 6-7): a scan
// is a single read of the auditable max register M, so it is effective — and
// audited — exactly when that read is.
type SnapScanner[V comparable] struct {
	mr    *core.Reader[uint64]
	j     int
	views *unbounded.Log[V]
	// The version last read and its view: a silent scan skips the log.
	vn   uint64
	view []V
}

// Scanner returns the handle for scanner j (0 <= j < m). Not safe for
// concurrent use.
func (reg *Auditable[V]) Scanner(j int, opts ...core.HandleOption) (*SnapScanner[V], error) {
	mr, err := reg.mreg.Reader(j, opts...)
	if err != nil {
		return nil, err
	}
	return &SnapScanner[V]{mr: mr, j: j, views: reg.views, view: reg.init}, nil
}

// Index returns the scanner's index j.
func (sc *SnapScanner[V]) Index() int { return sc.j }

// Scan returns an atomic view of the snapshot.
func (sc *SnapScanner[V]) Scan() []V {
	if vn := sc.mr.Read(); vn != sc.vn {
		sc.vn, sc.view = vn, unsafe.Slice(sc.views.Load(vn), len(sc.view))
	}
	out := make([]V, len(sc.view))
	copy(out, sc.view)
	return out
}

// SnapAuditor is the per-process audit handle (lines 8-10): an audit of the
// snapshot is an audit of M with version numbers stripped. Like the auditor
// of M it wraps, it is incremental: it keeps the cumulative view list and a
// hash index over it, and folds in M's decrypted rows directly — M's auditor
// keeps no set of its own — so an audit costs the rows M's cursor scans.
type SnapAuditor[V comparable] struct {
	ma    *core.Auditor[uint64]
	reg   *Auditable[V]
	out   []ViewEntry[V] // distinct by (scanner, view content); append-only
	index core.Index     // over out, by content
	seed  maphash.Seed
	// The last view hashed and its content hash. M's report lists a
	// version's scanners in consecutive rows that carry one view, and out
	// keeps that order, so a view is hashed once per version and each of
	// its rows mixes in only the scanner.
	hashed  *V
	content uint64
}

// Auditor returns an auditor handle with its own cumulative audit set.
func (reg *Auditable[V]) Auditor(opts ...core.HandleOption) *SnapAuditor[V] {
	return &SnapAuditor[V]{ma: reg.mreg.Auditor(opts...), reg: reg, seed: maphash.MakeSeed()}
}

// Audit reports the set of (scanner, view) pairs such that the scanner has an
// effective scan returning the view, deduplicated by view content (two
// versions may hold equal content). The result is a view of the auditor's
// cumulative list, shared with later audits and with the register's history:
// read-only.
func (a *SnapAuditor[V]) Audit() ([]ViewEntry[V], error) {
	if err := a.ma.AuditRows(a.foldRow); err != nil {
		return nil, err
	}
	return a.out[:len(a.out):len(a.out)], nil
}

// foldRow adds one of M's decrypted rows, the view under vn for each of its
// scanners in ascending order: the order M's own set would have listed them
// in.
func (a *SnapAuditor[V]) foldRow(vn uint64, readers uint64) {
	v := a.reg.viewAt(vn)
	for r := readers; r != 0; r &= r - 1 {
		a.add(ViewEntry[V]{Reader: bits.TrailingZeros64(r), View: v})
	}
}

// add appends e to the list unless an entry of equal content is there.
func (a *SnapAuditor[V]) add(e ViewEntry[V]) {
	if _, added := a.index.Find(a.hash(e), len(a.out),
		func(i int) bool { return sameViewEntry(a.out[i], e) },
		func(i int) uint64 { return a.hash(a.out[i]) }); added {
		a.out = append(a.out, e)
	}
}

// hash returns e's content hash: its view's, computed once per view, mixed
// with the scanner.
func (a *SnapAuditor[V]) hash(e ViewEntry[V]) uint64 {
	if p := &e.View[0]; p != a.hashed {
		if ws, ok := any(e.View).([]uint64); ok {
			a.content = core.HashWords(ws)
		} else {
			var h maphash.Hash
			h.SetSeed(a.seed)
			for _, x := range e.View {
				maphash.WriteComparable(&h, x)
			}
			a.content = h.Sum64()
		}
		a.hashed = p
	}
	return a.content ^ uint64(e.Reader)*0x9e3779b97f4a7c15
}

func sameViewEntry[V comparable](x, e ViewEntry[V]) bool {
	if x.Reader != e.Reader || len(x.View) != len(e.View) {
		return false
	}
	for i := range e.View {
		if x.View[i] != e.View[i] {
			return false
		}
	}
	return true
}

// ContainsView reports whether entries includes (reader, view), comparing
// views by content. Exported for tests and examples.
func ContainsView[V comparable](entries []ViewEntry[V], reader int, v []V) bool {
	for _, x := range entries {
		if sameViewEntry(x, ViewEntry[V]{Reader: reader, View: v}) {
			return true
		}
	}
	return false
}
