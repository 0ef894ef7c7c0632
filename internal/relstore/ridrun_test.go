package relstore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/recset"
)

// trueRun is how many leading rows of column j hold their rids, read cell by
// cell through At: the reference the rid run is held to.
func trueRun(t *Table, j int) int {
	n := 0
	for n < t.Len() {
		if v := t.At(n, j); v.Type != TypeInt || v.I != int64(n+1) {
			break
		}
		n++
	}
	return n
}

// checkRuns fails when a column's rid run covers a cell that does not hold its
// rid, and, when exact, when the rid column's run is not its true prefix.
func checkRuns(t *testing.T, what string, tbl *Table, exact bool) {
	t.Helper()
	for j, c := range tbl.cols {
		if c.run > c.len() {
			t.Fatalf("%s: column %d's run %d passes its %d cells", what, j, c.run, c.len())
		}
		if c.at != nil && c.run != 0 {
			t.Fatalf("%s: view column %d has run %d", what, j, c.run)
		}
		if got := trueRun(tbl, j); c.run > got {
			t.Fatalf("%s: column %d's run %d covers cell %d, which does not hold its rid", what, j, c.run, got)
		} else if exact && j == 0 && c.run != got {
			t.Fatalf("%s: the rid column's run is %d, its cells hold their rids to %d", what, c.run, got)
		}
	}
}

// roundTrip rebuilds the table from its lanes, as a checkpoint reopen does.
func roundTrip(t *testing.T, tbl *Table) *Table {
	t.Helper()
	lanes := make([]ColumnLanes, len(tbl.cols))
	for j := range lanes {
		lanes[j] = tbl.ColumnLanes(j)
	}
	out, err := NewTableFromLanes(tbl.Name, tbl.Schema, tbl.Cluster, tbl.Len(), lanes, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzRIDRun: after every operation of a random sequence — appends of the next
// rid and of stray rids (another integer, NULL, a decimal, a string, a
// boolean), Set, UpdateWhere, DeleteWhere, SortBy, Shrink, AlterColumnType,
// GeneralizeColumn, AppendFrom out of another table or out of a view, View,
// GatherInto and a NewTableFromLanes round trip — no column's rid run covers a
// cell that does not hold its rid, and after a history of appends only, or a
// round trip, the rid column's run is exactly as long as its cells hold their
// rids.
func FuzzRIDRun(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 1, 0, 2, 0, 15})
	f.Add(int64(2), []byte{0, 0, 0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(int64(3), []byte{11, 0, 0, 12, 0, 15, 0, 0, 10, 9, 8})
	f.Add(int64(4), []byte{})
	f.Add(int64(5), []byte{7, 7, 0, 0, 6, 6, 15, 8, 15, 0})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		rng := rand.New(rand.NewSource(seed))
		next := func(n int) int {
			if len(script) > 0 {
				b := script[0]
				script = script[1:]
				return int(b) % n
			}
			return rng.Intn(n)
		}
		schema := MustSchema([]Column{{Name: "rid", Type: TypeInt}, {Name: "a", Type: TypeInt}, {Name: "s", Type: TypeString}})
		tbl := NewTable("t", schema)
		stray := func(n int) Value {
			switch rng.Intn(6) {
			case 0:
				return Int(int64(n + 1))
			case 1:
				return Int(int64(rng.Intn(2*n+3) - 1))
			case 2:
				return Null()
			case 3:
				return Float(float64(n + 1))
			case 4:
				return Str(fmt.Sprint(n + 1))
			default:
				return Bool(true)
			}
		}
		row := func(rid Value) Row { return Row{rid, Int(int64(rng.Intn(4))), Str(fmt.Sprint(rng.Intn(3)))} }
		some := func(n int) Selection {
			var sel Selection
			for i := 0; i < n; i++ {
				if rng.Intn(3) != 0 {
					sel = append(sel, int32(i))
				}
			}
			return sel
		}
		for i := 0; i < 8; i++ {
			tbl.AppendRow(row(Int(int64(i + 1))))
		}
		exact := true
		checkRuns(t, "the first rows", tbl, exact)
		for step := 0; step < 48; step++ {
			n := tbl.Len()
			var what string
			switch op := next(16); {
			case op <= 2:
				what = "append the next rid"
				tbl.AppendRow(row(Int(int64(n + 1))))
			case op == 3:
				what = "append a stray rid"
				tbl.AppendRow(row(stray(n)))
			case op == 4 && n > 0:
				what = "Set a rid"
				tbl.Set(rng.Intn(n), 0, stray(rng.Intn(n)))
				exact = false
			case op == 5 && n > 0:
				what = "Set a data cell"
				tbl.Set(rng.Intn(n), 1, Int(int64(rng.Intn(9))))
				exact = false
			case op == 6:
				what = "UpdateWhere"
				x := int64(rng.Intn(4))
				_, _ = tbl.UpdateWhere(func(r Row) bool { return r[1].AsInt() == x }, func(r Row) Row { r[0] = stray(n); return r })
				exact = false
			case op == 7:
				what = "DeleteWhere"
				x := int64(rng.Intn(4))
				tbl.DeleteWhere(func(r Row) bool { return r[1].AsInt() == x })
				exact = false
			case op == 8:
				what = "SortBy"
				_ = tbl.SortBy(ClusterNone, []string{"rid", "a", "s"}[rng.Intn(3)])
				exact = false
			case op == 9 && n > 0:
				what = "Shrink"
				tbl.Shrink(rng.Intn(n))
				exact = false
			case op == 10:
				what = "AlterColumnType"
				_ = tbl.AlterColumnType("rid", []ValueType{TypeInt, TypeFloat, TypeString}[rng.Intn(3)])
				exact = false
			case op == 11:
				what = "GeneralizeColumn"
				_ = tbl.GeneralizeColumn("rid", []ValueType{TypeInt, TypeFloat, TypeString}[rng.Intn(3)])
				exact = false
			case op == 12:
				what = "AppendFrom"
				src := NewTable("src", schema)
				for i := rng.Intn(6); i > 0; i-- {
					rid := Int(int64(n + src.Len() + 1))
					if rng.Intn(4) == 0 {
						rid = stray(n)
					}
					src.AppendRow(row(rid))
				}
				if rng.Intn(2) == 0 {
					what = "AppendFrom a view"
					src = src.GatherInto("view", some(src.Len()))
				}
				var all Selection
				for i := 0; i < src.Len(); i++ {
					all = append(all, int32(i))
				}
				if err := tbl.AppendFrom(src, all); err != nil {
					t.Fatal(err)
				}
			case op == 13:
				what = "View"
				tbl = tbl.View()
			case op == 14:
				what = "GatherInto"
				tbl = tbl.GatherInto("gathered", some(n))
				exact = false
			default:
				what = "NewTableFromLanes"
				tbl = roundTrip(t, tbl)
				exact = true
			}
			checkRuns(t, fmt.Sprintf("step %d (%s)", step, what), tbl, exact)
		}
	})
}

// TestCoveredJoinEqualsScan: a join whose record set the data table's rid run
// covers, which reads the set's positions off the set and indexes its answer
// reading no rid, answers exactly as the join that scans the rid column and
// builds the index from the answer's rids — the same rows, the same index, the
// same lookups of rids inside and outside the set, the same accounted cost.
func TestCoveredJoinEqualsScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		data := randomCatalog(rng, 1+rng.Intn(3*selectBlock))
		n := data.Len()
		all := make(Selection, n)
		for i := range all {
			all[i] = int32(i)
		}
		scan := data.GatherInto("scan", all) // the same rows, in view columns: no run
		if data.RIDRun("rid") != n || scan.RIDRun("rid") != 0 {
			t.Fatalf("trial %d: runs %d and %d over %d rows", trial, data.RIDRun("rid"), scan.RIDRun("rid"), n)
		}
		set := recset.New()
		switch trial % 3 {
		case 0:
			for r := 1; r <= n; r++ {
				set.Add(int64(r))
			}
		case 1:
			for r := 1; r <= n; r += 1 + rng.Intn(70) {
				set.Add(int64(r))
			}
		}
		before := data.Stats().Snapshot() // scan shares the collector
		got, err := JoinTableOnRIDs(data, "rid", set, n, "got")
		if err != nil {
			t.Fatal(err)
		}
		mid := data.Stats().Snapshot()
		want, err := JoinTableOnRIDs(scan, "rid", set, n, "want")
		if err != nil {
			t.Fatal(err)
		}
		if a, b := before.Diff(mid), mid.Diff(scan.Stats().Snapshot()); a != b {
			t.Fatalf("trial %d: the covered join accounted %+v, the scan %+v", trial, a, b)
		}
		if got.intSorted != got.Len() || len(got.intIndex) != 0 || !slices.Equal(got.IndexColumns(), []string{"rid"}) {
			t.Fatalf("trial %d: the covered join's index sorts %d of %d rows and maps %d", trial, got.intSorted, got.Len(), len(got.intIndex))
		}
		if got.intSorted != want.intSorted || len(got.intIndex) != len(want.intIndex) || got.StorageBytes() != want.StorageBytes() {
			t.Fatalf("trial %d: index (%d sorted, %d mapped), the scan's (%d, %d)", trial, got.intSorted, len(got.intIndex), want.intSorted, len(want.intIndex))
		}
		if !slices.EqualFunc(got.Rows(), want.Rows(), Row.Identical) {
			t.Fatalf("trial %d: the covered join's rows differ from the scan's", trial)
		}
		for _, rid := range []int64{-1, 0, 1, int64(n / 2), int64(n), int64(n + 1), int64(rng.Intn(n + 2))} {
			g, gok := got.LookupIndex(Int(rid))
			w, wok := want.LookupIndex(Int(rid))
			if gok != wok || gok != set.Contains(rid) || !g.Identical(w) {
				t.Fatalf("trial %d: rid %d looks up %v %v, the scan's %v %v", trial, rid, g, gok, w, wok)
			}
		}
	}
	// A set with a rid past the run is not covered: both joins scan.
	data := randomCatalog(rng, 10)
	set := recset.FromSlice([]int64{2, int64(data.Len()) + 5})
	out, err := JoinTableOnRIDs(data, "rid", set, data.Len(), "past")
	if err != nil || out.Len() != 1 || out.IntAt(0, 0) != 2 {
		t.Fatalf("a rid past the table: %d rows, %v", out.Len(), err)
	}
}

// TestFilterVecSetChecksEveryRID: a table whose run does not cover the set has
// each rid walked checked against its row, so one out of place between the
// set's lowest and highest rid is refused too, and dst comes back as given.
func TestFilterVecSetChecksEveryRID(t *testing.T) {
	tbl := randomCatalog(rand.New(rand.NewSource(9)), 20)
	set := recset.FromSlice([]int64{1, 7, 20})
	dst := Selection{-3}
	got, err := tbl.FilterVecSet(dst, set, nil, 0)
	if err != nil || !slices.Equal(got, Selection{-3, 0, 6, 19}) {
		t.Fatalf("a covered set: %v, %v", got, err)
	}
	tbl.Set(6, 0, Int(70)) // row 6 no longer holds rid 7
	if tbl.RIDRun("rid") != 6 {
		t.Fatalf("after the write at row 6 the run is %d", tbl.RIDRun("rid"))
	}
	if got, err := tbl.FilterVecSet(dst, set, nil, 0); err == nil || !slices.Equal(got, dst) {
		t.Fatalf("rid 7 out of place: %v, %v", got, err)
	}
	if got, err := tbl.FilterVecSet(dst, recset.FromSlice([]int64{1, 8, 20}), nil, 0); err != nil || !slices.Equal(got, Selection{-3, 0, 7, 19}) {
		t.Fatalf("a set the write does not touch, checked: %v, %v", got, err)
	}
}
