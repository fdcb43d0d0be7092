package snapshot

// Borrows reports how many scans of reg's Afek substrate — embedded, the
// updaters' own and free-standing — returned a view borrowed from a component
// seen to move twice.
func Borrows[V comparable](reg *Auditable[V]) uint64 {
	return reg.s.(*Afek[comp[V]]).borrows.Load()
}
