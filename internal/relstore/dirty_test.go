package relstore

import (
	"slices"
	"testing"

	"repro/internal/recset"
)

func dirtyOf(t *Table) []int32 { return []int32(t.DirtyRows()) }

// cleanProteinTable is a table gathered out of another: no row of it has been
// written yet.
func cleanProteinTable(t *testing.T, n int) *Table {
	t.Helper()
	src := newProteinTable(t, n)
	sel := make(Selection, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	out := src.GatherInto("staging", sel)
	if out.dirty != nil || out.DirtyRows() != nil {
		t.Fatalf("a freshly gathered table has a dirty set: %v", out.DirtyRows())
	}
	return out
}

// TestDirtyRowsFollowEveryMutator: the set names exactly the rows written
// since the table was materialized, and moves with them when rows move.
func TestDirtyRowsFollowEveryMutator(t *testing.T) {
	coex := 3
	expect := func(t *testing.T, tbl *Table, want ...int32) {
		t.Helper()
		if got := dirtyOf(tbl); !slices.Equal(got, want) {
			t.Fatalf("dirty rows %v, want %v", got, want)
		}
	}
	t.Run("created", func(t *testing.T) {
		expect(t, newProteinTable(t, 3), 0, 1, 2) // every row of a table built by Insert was written
	})
	t.Run("Set", func(t *testing.T) {
		tbl := cleanProteinTable(t, 200)
		tbl.Set(130, coex, Int(1))
		tbl.Set(5, 0, Int(99)) // the rid cell counts
		tbl.Set(130, coex, Int(2))
		expect(t, tbl, 5, 130)
		if tbl.SharedColumns() != 2 {
			t.Fatalf("two columns were written, %d of 4 still shared", tbl.SharedColumns())
		}
		tbl.MarkClean()
		if tbl.dirty != nil {
			t.Fatal("MarkClean left a dirty set")
		}
	})
	t.Run("UpdateWhere", func(t *testing.T) {
		tbl := cleanProteinTable(t, 10)
		_, err := tbl.UpdateWhere(
			func(r Row) bool { return r[0].AsInt()%4 == 1 },
			func(r Row) Row {
				if r[0].AsInt() != 5 { // row 5 is selected but comes back unchanged
					r[coex] = Int(-1)
				}
				return r
			})
		if err != nil {
			t.Fatal(err)
		}
		expect(t, tbl, 1, 9)
	})
	t.Run("appends", func(t *testing.T) {
		tbl := cleanIndexed(t, 3)
		tbl.MustInsert(Row{Int(10), Str("a"), Str("b"), Int(0)})
		tbl.AppendRow(Row{Int(11)})
		if err := tbl.InsertBatch([]Row{{Int(12), Str("a"), Str("b"), Int(0)}, {Int(13), Str("a"), Str("b"), Int(0)}}); err != nil {
			t.Fatal(err)
		}
		if err := tbl.AppendFrom(newProteinTable(t, 30), Selection{20, 21}); err != nil {
			t.Fatal(err)
		}
		expect(t, tbl, 3, 4, 5, 6, 7, 8)
		if err := tbl.Insert(Row{Int(10), Str("dup"), Str("b"), Int(0)}); err == nil {
			t.Fatal("duplicate key accepted")
		}
		expect(t, tbl, 3, 4, 5, 6, 7, 8) // a refused insert wrote nothing
	})
	t.Run("DeleteWhere", func(t *testing.T) {
		tbl := cleanProteinTable(t, 100)
		tbl.Set(10, coex, Int(1))
		tbl.Set(70, coex, Int(1))
		tbl.Set(71, coex, Int(1))
		tbl.DeleteWhere(func(r Row) bool { return r[0].AsInt() < 20 || r[0].AsInt() == 70 })
		expect(t, tbl, 50) // old row 71; rows 10 and 70 are gone
		if tbl.At(50, 0).AsInt() != 71 {
			t.Fatalf("row 50 is rid %d", tbl.At(50, 0).AsInt())
		}
	})
	t.Run("Shrink", func(t *testing.T) {
		tbl := cleanProteinTable(t, 100)
		for _, p := range []int{3, 63, 64, 65, 99} {
			tbl.Set(p, coex, Int(1))
		}
		tbl.Shrink(65)
		expect(t, tbl, 3, 63, 64)
		tbl.AppendRow(Row{Int(500)})
		expect(t, tbl, 3, 63, 64, 65)
		tbl.Shrink(0)
		expect(t, tbl)
	})
	t.Run("SortBy", func(t *testing.T) {
		tbl := cleanProteinTable(t, 10)
		tbl.Set(2, coex, Int(1000)) // sorts last
		tbl.Set(7, coex, Int(-5))   // sorts first
		if err := tbl.SortBy(ClusterNone, "coexpression"); err != nil {
			t.Fatal(err)
		}
		expect(t, tbl, 0, 9)
		if tbl.At(0, 0).AsInt() != 7 || tbl.At(9, 0).AsInt() != 2 {
			t.Fatal("the marks did not move with their rows")
		}
	})
	t.Run("schema changes", func(t *testing.T) {
		tbl := cleanProteinTable(t, 4)
		if err := tbl.AddColumn(Column{Name: "note", Type: TypeString}); err != nil {
			t.Fatal(err)
		}
		expect(t, tbl) // no existing cell changed
		tbl.Set(2, coex, Null())
		tbl.MarkClean()
		if err := tbl.AlterColumnType("coexpression", TypeFloat); err != nil {
			t.Fatal(err)
		}
		expect(t, tbl, 0, 1, 3) // every cell that was cast; the NULL was not
	})
	t.Run("Truncate and Clone", func(t *testing.T) {
		tbl := cleanProteinTable(t, 4)
		tbl.Set(1, coex, Int(1))
		clone := tbl.Clone("clone")
		expect(t, clone, 1)
		clone.Set(2, coex, Int(1))
		expect(t, tbl, 1)
		tbl.Truncate()
		expect(t, tbl)
		tbl.MustInsert(Row{Int(1), Str("a"), Str("b"), Int(0)})
		expect(t, tbl, 0)
	})
}

// TestSortedIntegerIndex: BuildIndexOn leaves the ascending run at the head of
// an integer key column out of the map and finds those keys by binary search;
// lookups, duplicate detection and the accounted size cannot tell.
func TestSortedIntegerIndex(t *testing.T) {
	tbl := cleanProteinTable(t, 100)
	if err := tbl.BuildIndexOn("rid"); err != nil {
		t.Fatal(err)
	}
	if tbl.intSorted != 100 || len(tbl.intIndex) != 0 {
		t.Fatalf("an ascending column put %d keys in the map, %d in the sorted run", len(tbl.intIndex), tbl.intSorted)
	}
	mapped := mappedProteinTable(t, 100) // every key in the map
	if got, want := tbl.StorageBytes(), mapped.StorageBytes(); got != want {
		t.Fatalf("accounted size %d, with a map %d", got, want)
	}
	tbl.MustInsert(Row{Int(-4), Str("a"), Str("b"), Int(0)}) // out of order: goes to the map
	tbl.MustInsert(Row{Int(400), Str("a"), Str("b"), Int(0)})
	for _, key := range []int64{0, 57, 99, -4, 400} {
		if row, ok := tbl.LookupIndex(Int(key)); !ok || row[0].AsInt() != key {
			t.Fatalf("key %d not found (%v)", key, row)
		}
	}
	if _, ok := tbl.LookupIndex(Int(100)); ok {
		t.Fatal("found a key nobody inserted")
	}
	for _, key := range []int64{57, -4} {
		if err := tbl.Insert(Row{Int(key), Str("a"), Str("b"), Int(0)}); err == nil {
			t.Fatalf("duplicate key %d accepted", key)
		}
		if err := tbl.AppendFrom(mapped, Selection{57}); err == nil {
			t.Fatal("AppendFrom accepted a key of the sorted run")
		}
	}
	// A rebuild over the rows as they are now: the run ends at the first
	// descent, the rest is mapped, and a duplicate across the two is caught.
	if err := tbl.BuildIndexOn("rid"); err != nil {
		t.Fatal(err)
	}
	if tbl.intSorted != 100 || len(tbl.intIndex) != 2 {
		t.Fatalf("rebuild: %d sorted, %d mapped", tbl.intSorted, len(tbl.intIndex))
	}
	tbl.AppendRow(Row{Int(57)})
	if err := tbl.BuildIndexOn("rid"); err == nil {
		t.Fatal("a key repeated across the sorted run and the map was indexed")
	}
	// A rebuild that fails (here inside Shrink) leaves the index stale, as it
	// always did, but a stale run must not reach past the rows that are left.
	stale := cleanIndexed(t, 10)
	stale.Set(1, 0, Int(0))
	stale.Shrink(4)
	if err := stale.Insert(Row{Int(50), Str("a"), Str("b"), Int(0)}); err != nil {
		t.Fatal(err)
	}
	// The index-nested-loop join reads through the same lookup.
	rows, err := JoinOnRIDs(cleanIndexed(t, 50), "rid", []int64{3, 44, 70}, IndexNestedLoopJoin)
	if err != nil || len(rows) != 2 {
		t.Fatalf("index join over a sorted run: %d rows, %v", len(rows), err)
	}
}

// mappedProteinTable is newProteinTable with every key of its rid index in
// the map and none in the sorted run: the form Insert kept a table in before
// it extended the run.
func mappedProteinTable(t *testing.T, n int) *Table {
	tbl := newProteinTable(t, n)
	tbl.intIndex, tbl.intSorted = make(map[int64]int, n), 0
	for pos := range tbl.Len() {
		tbl.intIndex[tbl.At(pos, 0).I] = pos
	}
	return tbl
}

// TestInsertExtendsSortedRun: Insert keeps keys that ascend in the integer
// index's sorted run — a table filled in key order, as a record catalog is,
// holds no map entry — and sends the first key out of order, and every key
// after it, to the map. Lookups, duplicate refusals and the accounted size
// are those of the table with every key mapped, and the index rebuilds of
// Shrink, DeleteWhere, SortBy and UpdateWhere leave the two alike.
func TestInsertExtendsSortedRun(t *testing.T) {
	same := func(what string, got, want *Table) {
		t.Helper()
		for key := int64(-3); key < 1200; key++ {
			g, gok := got.LookupIndex(Int(key))
			w, wok := want.LookupIndex(Int(key))
			if gok != wok || gok && !g.Identical(w) {
				t.Fatalf("%s: key %d looks up %v (%v), with every key mapped %v (%v)", what, key, g, gok, w, wok)
			}
		}
		if g, w := got.StorageBytes(), want.StorageBytes(); g != w {
			t.Fatalf("%s: accounted %d B, with every key mapped %d", what, g, w)
		}
		for _, key := range []int64{0, 31, 63, -2, 100, 1001} { // a refused insert changes nothing
			if _, present := want.LookupIndex(Int(key)); present {
				if err := got.Insert(Row{Int(key), Str("a"), Str("b"), Int(0)}); err == nil {
					t.Fatalf("%s: duplicate key %d accepted", what, key)
				}
			}
		}
	}
	build := func(mapped bool) *Table {
		tbl := newProteinTable(t, 64)
		if mapped {
			tbl = mappedProteinTable(t, 64)
		}
		tbl.MustInsert(Row{Int(-2), Str("a"), Str("b"), Int(0)}) // out of order
		tbl.MustInsert(Row{Int(100), Str("a"), Str("b"), Int(0)})
		return tbl
	}

	run := newProteinTable(t, 64)
	if run.intSorted != 64 || len(run.intIndex) != 0 {
		t.Fatalf("64 ascending inserts: %d keys sorted, %d mapped", run.intSorted, len(run.intIndex))
	}
	same("ascending inserts", run, mappedProteinTable(t, 64))
	run = build(false)
	if run.intSorted != 64 || len(run.intIndex) != 2 {
		t.Fatalf("a key out of order, then one above the run: %d keys sorted, %d mapped", run.intSorted, len(run.intIndex))
	}
	same("a key out of order", run, build(true))

	for name, rebuild := range map[string]func(*Table) error{
		"Shrink": func(tbl *Table) error { tbl.Shrink(40); return nil },
		"DeleteWhere": func(tbl *Table) error {
			tbl.DeleteWhere(func(r Row) bool { return r[0].AsInt()%3 == 0 })
			return nil
		},
		"SortBy": func(tbl *Table) error { return tbl.SortBy(ClusterOnRID, "rid") },
		"UpdateWhere": func(tbl *Table) error {
			_, err := tbl.UpdateWhere(func(r Row) bool { return r[0].AsInt()%5 == 0 }, func(r Row) Row { r[0] = Int(r[0].AsInt() + 1000); return r })
			return err
		},
	} {
		got, want := build(false), build(true)
		if err := rebuild(got); err != nil {
			t.Fatal(err)
		}
		if err := rebuild(want); err != nil {
			t.Fatal(err)
		}
		if got.intSorted != want.intSorted || len(got.intIndex) != len(want.intIndex) {
			t.Fatalf("%s: rebuilt %d sorted, %d mapped; with every key mapped first %d and %d", name, got.intSorted, len(got.intIndex), want.intSorted, len(want.intIndex))
		}
		same(name, got, want)
	}
}

// TestIntPosTrustsRIDRun: a key within the index column's rid run is found at
// row key-1 without a search, and every lookup answers as a scan of the rid
// column does — on a dense catalog, after an update lowers the run, after a
// shrink clips it and after an out-of-order insert.
func TestIntPosTrustsRIDRun(t *testing.T) {
	build := func() *Table {
		tbl := NewTable("catalog", proteinSchema())
		for rid := int64(1); rid <= 80; rid++ {
			tbl.MustInsert(Row{Int(rid), Str("a"), Str("b"), Int(rid)})
		}
		return tbl
	}
	scan := func(tbl *Table, key int64) (Row, bool) {
		for pos := range tbl.Len() {
			if v := tbl.At(pos, 0); v.Type == TypeInt && v.I == key {
				return tbl.RowAt(pos), true
			}
		}
		return nil, false
	}
	check := func(what string, tbl *Table, run int) {
		t.Helper()
		if tbl.cols[0].run != run {
			t.Fatalf("%s: rid run %d, want %d", what, tbl.cols[0].run, run)
		}
		for key := int64(-3); key < 1200; key++ {
			g, gok := tbl.LookupIndex(Int(key))
			w, wok := scan(tbl, key)
			if gok != wok || gok && !g.Identical(w) {
				t.Fatalf("%s: key %d looks up %v (%v), a scan finds %v (%v)", what, key, g, gok, w, wok)
			}
		}
	}
	check("dense catalog", build(), 80)
	tbl := build()
	if _, err := tbl.UpdateWhere(func(r Row) bool { return r[0].AsInt() == 30 }, func(r Row) Row { r[0] = Int(1000); return r }); err != nil {
		t.Fatal(err)
	}
	check("UpdateWhere", tbl, 29)
	tbl = build()
	tbl.Shrink(50)
	check("Shrink", tbl, 50)
	tbl = build()
	tbl.MustInsert(Row{Int(-2), Str("a"), Str("b"), Int(0)})
	check("Insert", tbl, 80)
}

func cleanIndexed(t *testing.T, n int) *Table {
	tbl := cleanProteinTable(t, n)
	if err := tbl.BuildIndexOn("rid"); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestPositionalSelection: when rid r sits at row r-1 the hash join answers
// without scanning, and anything else falls back to the scan with the same
// answer; the accounted cost is the scan's either way.
func TestPositionalSelection(t *testing.T) {
	dense := NewTable("dense", proteinSchema())
	for rid := int64(1); rid <= 50; rid++ {
		dense.MustInsert(Row{Int(rid), Str("a"), Str("b"), Int(rid)})
	}
	set := recset.FromSlice([]int64{2, 3, 40, 50})
	before := dense.Stats().Snapshot()
	sel, err := dense.SelectRIDSet("rid", set)
	if err != nil || !slices.Equal(sel, Selection{1, 2, 39, 49}) {
		t.Fatalf("positional selection: %v, %v", sel, err)
	}
	if d := before.Diff(dense.Stats().Snapshot()); d.SeqReads != 50 || d.HashProbes != 50 {
		t.Fatalf("accounted %d sequential reads and %d probes, want the scan's 50 and 50", d.SeqReads, d.HashProbes)
	}
	// A rid the table lacks, and a table whose rids are not at rid-1.
	if sel, _ := dense.SelectRIDSet("rid", recset.FromSlice([]int64{2, 51})); !slices.Equal(sel, Selection{1}) {
		t.Fatalf("a missing rid: %v", sel)
	}
	dense.DeleteWhere(func(r Row) bool { return r[0].AsInt() == 3 })
	if sel, _ := dense.SelectRIDSet("rid", set); !slices.Equal(sel, Selection{1, 38, 48}) {
		t.Fatalf("after a delete shifted the rows: %v", sel)
	}
}
