package store

// FreshAudit is the tests' from-scratch oracle: a new auditor handle folds
// the object's whole history from row 0, apart from the object's own audit
// fold, which Object.Audit, Store.Audit and every AuditPool advance. A test
// holding those to FreshAudit holds the incremental fold to the full one.
func FreshAudit[V comparable](obj *Object[V]) (ObjectAudit[V], error) {
	out := ObjectAudit[V]{Object: obj.name, Kind: obj.kind}
	var err error
	if obj.kind == Snapshot {
		out.Views, err = obj.snap.Auditor().Audit()
	} else {
		out.Report, err = obj.regs.Auditor().Audit()
	}
	return out, err
}
