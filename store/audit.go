package store

import "auditreg"

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
