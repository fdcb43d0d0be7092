package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"auditreg"
	"auditreg/internal/core"
)

// ObjectAudit is one object's audit outcome. For Register and MaxRegister
// objects the pairs live in Report; for Snapshot objects the audited
// (scanner, view) pairs live in Views. Reports handed out by auditors are
// zero-copy snapshots of the auditor's cumulative set — treat them as
// read-only.
type ObjectAudit[V comparable] struct {
	// Object is the audited object's name.
	Object string
	// Kind is the audited object's kind.
	Kind Kind
	// Report holds the audited (reader, value) pairs of a Register or
	// MaxRegister.
	Report auditreg.Report[V]
	// Views holds the audited (scanner, view) pairs of a Snapshot.
	Views []auditreg.ViewEntry[V]
}

// Len returns the number of audited pairs.
func (a ObjectAudit[V]) Len() int {
	if a.Kind == Snapshot {
		return len(a.Views)
	}
	return a.Report.Len()
}

// Same reports whether two audits of the same object contain the same set
// of pairs, irrespective of order.
func (a ObjectAudit[V]) Same(b ObjectAudit[V]) bool {
	if a.Object != b.Object || a.Kind != b.Kind {
		return false
	}
	if a.Kind != Snapshot {
		return a.Report.Equal(b.Report)
	}
	if len(a.Views) != len(b.Views) {
		return false
	}
	// Both sides are deduplicated by the snapshot auditor, so equal length
	// plus one-way containment is set equality.
	for _, e := range a.Views {
		if !auditreg.ContainsView(b.Views, e.Reader, e.View) {
			return false
		}
	}
	return true
}

// Subset reports whether every pair of a also appears in b (audit sets only
// grow, so an earlier report must be a subset of any later one).
func (a ObjectAudit[V]) Subset(b ObjectAudit[V]) bool {
	if a.Object != b.Object || a.Kind != b.Kind {
		return false
	}
	if a.Kind == Snapshot {
		for _, e := range a.Views {
			if !auditreg.ContainsView(b.Views, e.Reader, e.View) {
				return false
			}
		}
		return true
	}
	for _, e := range a.Report.From(0) {
		if !b.Report.Contains(e.Reader, e.Value) {
			return false
		}
	}
	return true
}

// auditCursor is an object's one audit fold, advanced by every audit —
// Object.Audit, Store.Audit and an AuditPool's sweeps, AuditObject and Rows
// alike — so each costs only the history written since anyone last audited
// the object. It holds the persistent auditor handle, made at the object's
// first audit (not safe for concurrent use, hence the mutex) — aud for a
// Register or MaxRegister, snapAud for a Snapshot — and the latest
// published report. The report is two words: n, its pair count plus one (0:
// none yet), and base (vbase for a snapshot), the first entry of the
// auditor's append-only list, stored only when the list was reallocated and
// always before n. A reader loads n first: the base it then loads holds n
// entries for good.
type auditCursor[V comparable] struct {
	mu      sync.Mutex
	aud     *auditreg.Auditor[V]
	snapAud *auditreg.SnapshotAuditor[V]
	// journaled: the audited mark went to the journal this boot.
	journaled bool
	n         atomic.Int64
	base      atomic.Pointer[auditreg.Entry[V]]
	vbase     atomic.Pointer[auditreg.ViewEntry[V]]
}

// report rebuilds the object's published report from n and the base loaded
// after it: a read-only view of the auditor's list, its capacity its length.
// ok is false until the object's first audit.
func (o *Object[V]) report() (rep ObjectAudit[V], ok bool) {
	c := &o.cur
	n := int(c.n.Load()) - 1
	if n < 0 {
		return ObjectAudit[V]{}, false
	}
	rep = ObjectAudit[V]{Object: o.name, Kind: o.kind}
	if o.kind == Snapshot {
		rep.Views = unsafe.Slice(c.vbase.Load(), n)
	} else {
		rep.Report = core.NewReportView(unsafe.Slice(c.base.Load(), n))
	}
	return rep, true
}

// advance moves the object's audit fold on by one incremental audit and
// publishes the cumulative report if it grew (audit sets only grow, so an
// unchanged pair count is an unchanged set); it allocates only when the list
// regrows, and at the first audit, which makes the auditor handle.
func (o *Object[V]) advance() error {
	c := &o.cur
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int
	if o.kind == Snapshot {
		if c.snapAud == nil {
			c.snapAud = o.snap.Auditor()
		}
		views, err := c.snapAud.Audit()
		if err != nil {
			return fmt.Errorf("store: audit %q: %w", o.name, err)
		}
		if b := unsafe.SliceData(views); b != c.vbase.Load() {
			c.vbase.Store(b)
		}
		n = len(views)
	} else {
		if c.aud == nil {
			c.aud = o.regs.Auditor()
		}
		rep, err := c.aud.Audit()
		if err != nil {
			return fmt.Errorf("store: audit %q: %w", o.name, err)
		}
		entries := rep.From(0)
		if b := unsafe.SliceData(entries); b != c.base.Load() {
			c.base.Store(b)
		}
		n = len(entries)
	}
	if int(c.n.Load()) != n+1 {
		c.n.Store(int64(n) + 1)
	}
	// Journal the object's audited mark so recovery knows it had a published
	// report — once a boot, at its first nonempty report: recovery reads only
	// the mark, and idle sweeps must not trickle-fill the log. Journals never
	// block on these (derived state).
	if j := o.st.journal; j != nil && !c.journaled && n > 0 {
		if err := j.Record(JournalRecord[V]{Op: JournalAudit, Name: o.name, Kind: o.kind, Pairs: n}); err != nil {
			return fmt.Errorf("store: audit %q: journal: %w", o.name, err)
		}
		c.journaled = true
	}
	return nil
}
