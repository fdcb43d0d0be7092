package snapshot

import "reflect"

// Borrows reports how many scans of reg's Afek substrate — embedded, the
// updaters' own and free-standing — returned a view borrowed from a component
// seen to move twice.
func Borrows[V comparable](reg *Auditable[V]) uint64 {
	return reg.s.(*Afek[comp[V]]).borrows.Load()
}

// MHeld reports how many pairs and distinct views the max register auditor
// inside a keeps in a cumulative set of its own (core.Auditor's set field).
func MHeld[V comparable](a *SnapAuditor[V]) (pairs, views int) {
	set := reflect.ValueOf(a.ma).Elem().FieldByName("set")
	return set.FieldByName("entries").Len(), set.FieldByName("seenBits").Len()
}

// ReferenceAuditor returns the audit SnapAuditor folds rows into directly, as
// it was first built: a max register auditor's cumulative report with the
// version numbers stripped, deduplicated by content in report order.
func ReferenceAuditor[V comparable](reg *Auditable[V]) func() ([]ViewEntry[V], error) {
	ma := reg.mreg.Auditor()
	return func() ([]ViewEntry[V], error) {
		rep, err := ma.Audit()
		if err != nil {
			return nil, err
		}
		var out []ViewEntry[V]
		for _, e := range rep.Entries() {
			if v := e.Value.slice(reg.n); !ContainsView(out, e.Reader, v) {
				out = append(out, ViewEntry[V]{Reader: e.Reader, View: v})
			}
		}
		return out, nil
	}
}
