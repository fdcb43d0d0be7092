package core_test

import (
	"math/rand/v2"
	"slices"
	"strconv"
	"testing"

	"auditreg/internal/core"
	"auditreg/internal/otp"
)

// TestAuditSetMatchesPairSet folds seeded random row streams into audit sets
// and holds every audit to a reference pair set: the same entries, in order
// of first appearance (row order, then ascending reader), and every earlier
// view a prefix of every later one. The streams repeat values, carry 0 to 64
// reader bits a row, fold the last audit's current row (lsa) again with more
// readers, as the next audit does, and interleave the long-lived set's
// incremental audits with one-shot sets that fold the whole stream so far.
// Word values take the keyed word hash, strings maphash.
func TestAuditSetMatchesPairSet(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= 20; seed++ {
		checkAuditSet(t, seed, func(v uint64) uint64 { return v })
		checkAuditSet(t, seed, func(v uint64) string { return strconv.FormatUint(v, 36) })
	}
}

func checkAuditSet[V comparable](t *testing.T, seed uint64, conv func(uint64) V) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xa0d1))
	type fold struct{ row, val uint64 }
	var (
		folds []fold
		seen  = make(map[[2]uint64]bool)
		want  []core.Entry[V]
		live  = core.NewAuditSet[V]()
		views []core.Report[V]
	)
	refAdd := func(f fold) {
		for r := 0; r < 64; r++ {
			if f.row&(1<<r) != 0 && !seen[[2]uint64{uint64(r), f.val}] {
				seen[[2]uint64{uint64(r), f.val}] = true
				want = append(want, core.Entry[V]{Reader: r, Value: conv(f.val)})
			}
		}
	}
	readers := func() uint64 {
		var row uint64
		for _, r := range rng.Perm(64)[:rng.IntN(65)] {
			row |= 1 << r
		}
		return row
	}
	same := func(what string, got []core.Entry[V], want []core.Entry[V]) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("seed %d, %T values, after %d folds: %s has %d entries, the reference %d", seed, conv(0), len(folds), what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d, %T values, after %d folds: %s entry %d is %v, the reference's %v", seed, conv(0), len(folds), what, i, got[i], want[i])
			}
		}
	}

	values, rows := 1+rng.Uint64N(1500), 1+rng.IntN(1600)
	refold := false
	for len(folds) < rows {
		f := fold{row: readers(), val: rng.Uint64N(values)}
		if refold {
			// The next audit's first history row is the row the last one
			// folded as current, since joined by more readers.
			last := folds[len(folds)-1]
			f, refold = fold{row: last.row | readers(), val: last.val}, false
		}
		live.Add(f.row, conv(f.val))
		refAdd(f)
		folds = append(folds, f)
		if rng.IntN(100) != 0 && len(folds) < rows {
			continue
		}
		// An audit ends here: the live set's view, every earlier view, and a
		// one-shot set over the whole stream must agree with the reference.
		refold = true
		cur := live.View()
		same("the incremental view", cur.From(0), want)
		for _, v := range views {
			same("an earlier view", v.From(0), want[:v.Len()])
			same("the view past an earlier one", cur.From(v.Len()), want[v.Len():])
		}
		views = append(views, cur)
		once := core.NewAuditSet[V]()
		once.Reserve(len(folds))
		for _, f := range folds {
			once.Add(f.row, conv(f.val))
		}
		same("a one-shot view", once.View().From(0), want)
	}
}

// TestAuditAcrossChunks audits registers whose history spans three chunks of
// V and B, word values (stored inline) and strings (boxed) alike: a
// long-lived auditor that audits every 700 writes and a fresh auditor's
// first audit must both report exactly the reads made.
func TestAuditAcrossChunks(t *testing.T) {
	t.Parallel()
	checkAcrossChunks(t, func(i int) uint64 { return uint64(i) })
	checkAcrossChunks(t, strconv.Itoa)
}

func checkAcrossChunks[V comparable](t *testing.T, val func(int) V) {
	t.Helper()
	pads, err := otp.NewKeyedPads(otp.KeyFromSeed(5), 2)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := core.New(2, val(0), pads)
	if err != nil {
		t.Fatal(err)
	}
	var rds [2]*core.Reader[V]
	for j := range rds {
		if rds[j], err = reg.Reader(j); err != nil {
			t.Fatal(err)
		}
	}
	w, live := reg.Writer(), reg.Auditor()
	var want []core.Entry[V]
	for i := 1; i <= 2600; i++ {
		if err := w.Write(val(i)); err != nil {
			t.Fatal(err)
		}
		if i%3 != 0 {
			j := i % 2
			want = append(want, core.Entry[V]{Reader: j, Value: rds[j].Read()})
		}
		if i%700 == 0 {
			if _, err := live.Audit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep, err := live.Audit()
	if err != nil {
		t.Fatal(err)
	}
	once, err := reg.Auditor().Audit()
	if err != nil {
		t.Fatal(err)
	}
	if ref := core.NewReport(want...); !rep.Equal(ref) || !once.Equal(ref) {
		t.Fatalf("%T values: incremental audit has %d pairs, one-shot %d, reads made %d", val(0), rep.Len(), once.Len(), ref.Len())
	}
}

// TestAuditRowsAtBlockEdges reads the history rows on either side of its block
// edges — 512 and 1,024, where the half blocks end — through AuditRows, whose
// cursor is made to stop on them, and through Rows from every edge row, word
// values and boxed strings alike: every row must come back once, in order,
// with its value and readers.
func TestAuditRowsAtBlockEdges(t *testing.T) {
	t.Parallel()
	checkBlockEdges(t, func(i int) uint64 { return uint64(i) })
	checkBlockEdges(t, strconv.Itoa)
}

func checkBlockEdges[V comparable](t *testing.T, val func(int) V) {
	t.Helper()
	type row struct {
		val     V
		readers uint64
	}
	edges := []int{511, 512, 513, 1023, 1024, 1025}
	pads, err := otp.NewKeyedPads(otp.KeyFromSeed(6), 2)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := core.New(2, val(0), pads)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := reg.Reader(1)
	if err != nil {
		t.Fatal(err)
	}
	w, live := reg.Writer(), reg.Auditor()
	var got []row
	emit := func(v V, readers uint64) { got = append(got, row{v, readers}) }
	const writes = 1030
	for i := 1; i <= writes; i++ {
		if err := w.Write(val(i)); err != nil {
			t.Fatal(err)
		}
		if slices.Contains(edges, i) {
			rd.Read()
			// The cursor lands on the edge row; the next audit starts there.
			got = got[:0]
			if err := live.AuditRows(emit); err != nil {
				t.Fatal(err)
			}
		}
	}
	// want[s] is row s: write s's value, read by reader 1 if s is an edge.
	want := make([]row, writes+1)
	for s := range want {
		want[s].val = val(s)
		if slices.Contains(edges, s) {
			want[s].readers = 0b10
		}
	}
	got = got[:0]
	if err := live.AuditRows(emit); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want[edges[len(edges)-1]:]) {
		t.Fatalf("%T values: the last incremental audit emitted %v, want rows %d on", val(0), got, edges[len(edges)-1])
	}
	got = got[:0]
	if err := reg.Auditor().AuditRows(emit); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%T values: a one-shot audit emitted %d rows that differ from the history's %d", val(0), len(got), len(want))
	}
	for _, since := range append([]int{0, 510}, edges...) {
		for _, limit := range []int{1, 2, 513, writes} {
			got = got[:0]
			next, more, err := live.Rows(uint64(since), limit, emit)
			if err != nil {
				t.Fatal(err)
			}
			end := min(since+limit, writes)
			wantRows := want[since:end]
			if !more {
				wantRows = want[since:]
			}
			if !slices.Equal(got, wantRows) || next != uint64(end) || more != (since+limit < writes+1) {
				t.Fatalf("%T values: Rows(%d, %d) emitted %d rows, next %d, more %t; want %d rows, next %d", val(0), since, limit, len(got), next, more, len(wantRows), end)
			}
		}
	}
}
