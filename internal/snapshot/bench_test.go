package snapshot_test

import (
	"testing"

	"auditreg/internal/otp"
	"auditreg/internal/snapshot"
)

// BenchmarkSnapAuditFold times a fresh auditor's fold of a whole snapshot
// history, the cost of an object's first audit: 2,048 updates of a
// 4-component uint64 snapshot, each version scanned by four of eight
// scanners, so every version's view is hashed once as its rows fold and the
// index's doublings hash the list again.
func BenchmarkSnapAuditFold(b *testing.B) {
	const n, m, updates = 4, 8, 2048
	reg := newAuditableSnap(b, n, m, 0)
	ups := make([]*snapshot.SnapUpdater[uint64], n)
	for i := range ups {
		u, err := reg.Updater(i, otp.NewSeededNonces(uint64(i)+1, uint8(i)))
		if err != nil {
			b.Fatal(err)
		}
		ups[i] = u
	}
	scs := make([]*snapshot.SnapScanner[uint64], m)
	for j := range scs {
		sc, err := reg.Scanner(j)
		if err != nil {
			b.Fatal(err)
		}
		scs[j] = sc
	}
	for k := range updates {
		if err := ups[k%n].Update(uint64(k) + 1); err != nil {
			b.Fatal(err)
		}
		for j := k % 2; j < m; j += 2 {
			scs[j].Scan()
		}
	}
	var pairs int
	b.ReportAllocs()
	for b.Loop() {
		views, err := reg.Auditor().Audit()
		if err != nil {
			b.Fatal(err)
		}
		pairs = len(views)
	}
	if pairs != updates*m/2 {
		b.Fatalf("audit holds %d pairs, want %d", pairs, updates*m/2)
	}
}
