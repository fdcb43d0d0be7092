package snapshot

import "reflect"

// Borrows reports how many scans of reg's Afek substrate — embedded, the
// updaters' own and free-standing — returned a view borrowed from a component
// seen to move twice.
func Borrows[V comparable](reg *Auditable[V]) uint64 {
	return reg.s.(*Afek[comp[V]]).borrows.Load()
}

// OnCollect makes every scan of reg's Afek substrate call f after each of
// its collects.
func OnCollect[V comparable](reg *Auditable[V], f func()) {
	reg.s.(*Afek[comp[V]]).collected = f
}

// Component returns component i of reg's substrate S: its tag sn_i and its
// value.
func Component[V comparable](reg *Auditable[V], i int) (sn uint64, val V) {
	u, err := reg.s.Updater(i)
	if err != nil {
		panic(err)
	}
	view := make([]comp[V], reg.n)
	u.ScanInto(view)
	return view[i].sn, view[i].val
}

// UpdaterSeq returns the local sequence number sn_i of u.
func UpdaterSeq[V comparable](u *SnapUpdater[V]) uint64 { return u.sn }

// MHeld reports how many pairs and index slots the max register auditor
// inside a keeps in a cumulative set of its own (core.Auditor's set field).
func MHeld[V comparable](a *SnapAuditor[V]) (pairs, slots int) {
	set := reflect.ValueOf(a.ma).Elem().FieldByName("set")
	return set.FieldByName("entries").Len(), set.FieldByName("index").FieldByName("slots").Len()
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
			if v := reg.viewAt(e.Value); !ContainsView(out, e.Reader, v) {
				out = append(out, ViewEntry[V]{Reader: e.Reader, View: v})
			}
		}
		return out, nil
	}
}

// LastScan returns the version number sc last read from M and the view it
// resolved that number to: the handle's cache, which the next silent Scan
// copies.
func LastScan[V comparable](sc *SnapScanner[V]) (vn uint64, view []V) { return sc.vn, sc.view }

// ViewAt returns the view reg's log resolves vn to.
func ViewAt[V comparable](reg *Auditable[V], vn uint64) []V { return reg.viewAt(vn) }

// AuditVersions runs an audit of reg's M and hands emit each decrypted row:
// the version number, the view the log resolves it to, and the scanners.
func AuditVersions[V comparable](reg *Auditable[V], emit func(vn uint64, view []V, readers uint64)) func() error {
	ma := reg.mreg.Auditor()
	return func() error {
		return ma.AuditRows(func(vn, readers uint64) { emit(vn, reg.viewAt(vn), readers) })
	}
}

// Published returns what reg's log holds under vn, nil if nothing.
func Published[V comparable](reg *Auditable[V], vn uint64) *V {
	return reg.views.Load(vn)
}
