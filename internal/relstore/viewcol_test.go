package relstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/recset"
)

// A table GatherInto returns copies no cell: its columns view the source's
// lanes through the selection. The tests here hold it to what it replaced —
// every column gathered into lanes of its own — on every read, and check that
// every write copies only the columns it touches and never reaches the source.

// materialized is the table GatherInto built before it returned views: every
// column gathered into fresh lanes.
func materialized(t *Table, sel Selection) *Table {
	out := &Table{Name: t.Name + "_copy", Schema: t.Schema.Clone(), Cluster: t.Cluster, nrows: len(sel), stats: &CostStats{}}
	for _, c := range t.cols {
		out.cols = append(out.cols, c.gather(sel))
	}
	return out
}

// probeValues are literals of every type, for the filters.
var probeValues = []Value{Null(), Int(0), Int(3), Float(-1.5), Str("s05"), Bool(true), IntArray([]int64{1})}

// sameReads fails unless every read of got answers what the same read of want
// does. It reads got only: the number of shared columns must not move.
func sameReads(t *testing.T, what string, got, want *Table) {
	t.Helper()
	shared := got.SharedColumns()
	if got.Len() != want.Len() || !got.Schema.Equal(want.Schema) {
		t.Fatalf("%s: %d rows of (%s), want %d of (%s)", what, got.Len(), got.Schema, want.Len(), want.Schema)
	}
	for i := 0; i < want.Len(); i++ {
		for j := range want.Schema.Columns {
			w := want.At(i, j)
			if g := got.At(i, j); !g.Identical(w) {
				t.Fatalf("%s: cell (%d,%d) is %v, want %v", what, i, j, g, w)
			}
			if got.IntAt(i, j) != want.IntAt(i, j) || got.StringAt(i, j) != want.StringAt(i, j) {
				t.Fatalf("%s: cell (%d,%d) renders as %d %q, want %d %q", what, i, j, got.IntAt(i, j), got.StringAt(i, j), want.IntAt(i, j), want.StringAt(i, j))
			}
		}
	}
	if !slices.EqualFunc(got.Rows(), want.Rows(), Row.Identical) || !slices.Equal(got.DirtyRows(), want.DirtyRows()) {
		t.Fatalf("%s: rows or dirty rows differ: %v %v, want %v %v", what, got.Rows(), got.DirtyRows(), want.Rows(), want.DirtyRows())
	}
	if got.StorageBytes() != want.StorageBytes() {
		t.Fatalf("%s: %d accounted bytes, want %d", what, got.StorageBytes(), want.StorageBytes())
	}
	every := make(Selection, 0, want.Len())
	for i := want.Len() - 1; i >= 0; i -= 2 {
		every = append(every, int32(i))
	}
	gb, gw := got.RowBlock(every, 0)
	wb, ww := want.RowBlock(every, 0)
	if gw != ww || !Row(gb).Identical(wb) || !slices.EqualFunc(got.GatherRows(every), want.GatherRows(every), Row.Identical) {
		t.Fatalf("%s: RowBlock or GatherRows differ", what)
	}
	for j, col := range want.Schema.Columns {
		if !reflect.DeepEqual(got.ColumnLanes(j), want.ColumnLanes(j)) {
			t.Fatalf("%s: column %d's lanes differ", what, j)
		}
		gi, _ := got.GatherInts(col.Name, every)
		wi, _ := want.GatherInts(col.Name, every)
		if !slices.Equal(gi, wi) {
			t.Fatalf("%s: GatherInts of %s differ", what, col.Name)
		}
		for _, v := range probeValues {
			for op := CmpEQ; op <= CmpGE; op++ {
				gs, _ := got.FilterVec(col.Name, op, v)
				ws, _ := want.FilterVec(col.Name, op, v)
				if !slices.Equal(gs, ws) {
					t.Fatalf("%s: %s %s %v selects %v, want %v", what, col.Name, op, v, gs, ws)
				}
				preds := []ColPred{{Col: want.Schema.Columns[0].Name, Op: CmpNE, Value: Null()}, {Col: col.Name, Op: op, Value: v}}
				gs, _ = got.FilterVecAll(preds)
				ws, _ = want.FilterVecAll(preds)
				if !slices.Equal(gs, ws) {
					t.Fatalf("%s: FilterVecAll %v selects %v, want %v", what, preds, gs, ws)
				}
			}
		}
	}
	if got.SharedColumns() != shared {
		t.Fatalf("%s: reading changed the shared columns from %d to %d", what, shared, got.SharedColumns())
	}
}

// selections draws the selections the tests gather through: none, every row,
// every other row, a random subset and one row.
func selections(rng *rand.Rand, n int) []Selection {
	all, half, some := Selection{}, Selection{}, Selection{}
	for i := 0; i < n; i++ {
		all = append(all, int32(i))
		if i%2 == 1 {
			half = append(half, int32(i))
		}
		if rng.Intn(3) == 0 {
			some = append(some, int32(i))
		}
	}
	out := []Selection{{}, all, half, some}
	if n > 0 {
		out = append(out, Selection{int32(rng.Intn(n))})
	}
	return out
}

// TestViewColumnsReadAsMaterialized: a gathered table, a table gathered out of
// it, its View, and one regathered by DeleteWhere and SortBy answer every read
// as a materialized copy does, and reading one copies nothing.
func TestViewColumnsReadAsMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 40; trial++ {
		src := randomCatalog(rng, 1+rng.Intn(60))
		for k, sel := range selections(rng, src.Len()) {
			what := fmt.Sprintf("trial %d selection %d", trial, k)
			view, want := src.GatherInto("view", slices.Clone(sel)), materialized(src, sel)
			if view.SharedColumns() != len(src.cols) {
				t.Fatalf("%s: %d of %d columns are views", what, view.SharedColumns(), len(src.cols))
			}
			sameReads(t, what, view, want)
			sameReads(t, what+" View", view.View(), want)
			for j, sub := range selections(rng, len(sel)) {
				sameReads(t, fmt.Sprintf("%s, gathered again through %d", what, j), view.GatherInto("again", slices.Clone(sub)), materialized(want, sub))
			}

			// The rid column ascends in a gathered catalog: the sorted index, the
			// probes and FilterVecSet read it through the positions.
			if err := view.BuildIndexOn("rid"); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if err := want.BuildIndexOn("rid"); err != nil {
				t.Fatal(err)
			}
			set := recset.New()
			for i := 0; i < src.Len()+2; i += 1 + rng.Intn(3) {
				set.Add(int64(i))
			}
			gs, _ := view.SelectRIDSet("rid", set)
			ws, _ := want.SelectRIDSet("rid", set)
			if !slices.Equal(gs, ws) {
				t.Fatalf("%s: SelectRIDSet %v, want %v", what, gs, ws)
			}
			set.ForEach(func(rid int64) bool {
				g, gok := view.LookupIndex(Int(rid))
				w, wok := want.LookupIndex(Int(rid))
				if gok != wok || !g.Identical(w) {
					t.Fatalf("%s: rid %d looks up %v %v, want %v %v", what, rid, g, gok, w, wok)
				}
				return true
			})
			preds := []ColPred{{Col: src.Schema.Columns[1].Name, Op: CmpGE, Value: Int(0)}}
			gs, gerr := view.FilterVecSet(nil, set, preds, 0)
			ws, werr := want.FilterVecSet(nil, set, preds, 0)
			if (gerr == nil) != (werr == nil) || !slices.Equal(gs, ws) {
				t.Fatalf("%s: FilterVecSet %v %v, want %v %v", what, gs, gerr, ws, werr)
			}
			if len(sel) == 0 {
				continue
			}
			// Regathering composes positions: the columns stay views.
			drop := func(r Row) bool { return r[0].AsInt()%3 == 0 }
			view.DeleteWhere(drop)
			want.DeleteWhere(drop)
			if err := view.SortBy(ClusterNone, src.Schema.Columns[1].Name); err != nil {
				t.Fatal(err)
			}
			if err := want.SortBy(ClusterNone, src.Schema.Columns[1].Name); err != nil {
				t.Fatal(err)
			}
			if view.Len() > 0 && view.SharedColumns() != len(src.cols) {
				t.Fatalf("%s: DeleteWhere and SortBy copied %d columns", what, len(src.cols)-view.SharedColumns())
			}
			sameReads(t, what+" after DeleteWhere and SortBy", view, want)
			for _, c := range []*Table{view.Clone("clone"), mustProject(t, view)} {
				if c.SharedColumns() != 0 {
					t.Fatalf("%s: %s shares %d columns, want a copy", what, c.Name, c.SharedColumns())
				}
			}
		}
	}
}

func mustProject(t *testing.T, tbl *Table) *Table {
	t.Helper()
	names := make([]string, len(tbl.Schema.Columns))
	for j, c := range tbl.Schema.Columns {
		names[j] = c.Name
	}
	p, err := tbl.Project("project", names...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestViewColumnsWriteLikeMaterialized: every mutation of a gathered table
// leaves it as the same mutation leaves a materialized copy; it copies the
// columns it writes and only those, and the source never sees it.
func TestViewColumnsWriteLikeMaterialized(t *testing.T) {
	type mutation struct {
		name string
		do   func(*Table)
		// copied is how many of the width columns the mutation gives lanes of
		// their own; -1 when it replaces the table's columns wholesale.
		copied int
	}
	width := func(tbl *Table) int { return len(tbl.Schema.Columns) }
	extra := func(tbl *Table) Row {
		r := Row{Int(int64(1_000_000 + tbl.Len()))}
		for range tbl.Schema.Columns[1:] {
			r = append(r, Str("new"))
		}
		return r
	}
	mutations := []mutation{
		{"Set", func(tbl *Table) { tbl.Set(0, 1, Str("set")) }, 1},
		{"UpdateWhere", func(tbl *Table) {
			last := width(tbl) - 1
			if _, err := tbl.UpdateWhere(func(Row) bool { return true }, func(r Row) Row { r[last] = Str("updated"); return r }); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"Insert", func(tbl *Table) { tbl.MustInsert(extra(tbl)) }, -1},
		{"AppendRow", func(tbl *Table) { tbl.AppendRow(extra(tbl)) }, -1},
		{"InsertBatch", func(tbl *Table) {
			if err := tbl.InsertBatch([]Row{extra(tbl)}); err != nil {
				t.Fatal(err)
			}
		}, -1},
		{"AppendFrom", func(tbl *Table) {
			more := NewTable("more", tbl.Schema.Clone())
			more.MustInsert(extra(tbl))
			if err := tbl.AppendFrom(more, Selection{0}); err != nil {
				t.Fatal(err)
			}
		}, -1},
		{"Shrink", func(tbl *Table) { tbl.Shrink(tbl.Len() / 2) }, 0},
		{"AddColumn", func(tbl *Table) {
			if err := tbl.AddColumn(Column{Name: "added", Type: TypeInt}); err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"AlterColumnType", func(tbl *Table) {
			if err := tbl.AlterColumnType("rid", TypeString); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"Truncate", func(tbl *Table) { tbl.Truncate() }, -1},
	}
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 20; trial++ {
		src := randomCatalog(rng, 8+rng.Intn(60))
		before := src.Rows()
		for k, sel := range selections(rng, src.Len())[1:4] {
			for _, m := range mutations {
				what := fmt.Sprintf("trial %d selection %d %s", trial, k, m.name)
				view, want := src.GatherInto("view", slices.Clone(sel)), materialized(src, sel)
				n := len(view.cols)
				m.do(view)
				m.do(want)
				sameReads(t, what, view, want)
				if m.copied >= 0 && view.SharedColumns() != n-m.copied {
					t.Fatalf("%s: %d of %d columns still views, want %d", what, view.SharedColumns(), n, n-m.copied)
				}
				if m.copied < 0 && view.SharedColumns() != 0 {
					t.Fatalf("%s: %d columns still views, want none", what, view.SharedColumns())
				}
				if !slices.EqualFunc(src.Rows(), before, Row.Identical) || src.SharedColumns() != 0 {
					t.Fatalf("%s: the source changed, or shares %d columns", what, src.SharedColumns())
				}
			}
		}
	}
}

// TestWrittenViewColumnHasRoom: a view column copied by its first write has
// room for the appends that usually follow, so they do not copy it again.
func TestWrittenViewColumnHasRoom(t *testing.T) {
	src := viewSource(400)
	sel := make(Selection, 0, 200)
	for i := 0; i < 400; i += 2 {
		sel = append(sel, int32(i))
	}
	stage := src.GatherInto("stage", sel)
	stage.Set(3, 1, Str("edited"))
	tags, strs := &stage.cols[1].tags[0], &stage.cols[1].strs[0]
	for i := 0; i < 50; i++ {
		stage.MustInsert(Row{Int(int64(1000 + i)), Str("added"), Int(0)})
	}
	if &stage.cols[1].tags[0] != tags || &stage.cols[1].strs[0] != strs {
		t.Fatal("appending 50 rows to a written 200-row column copied it again")
	}
}

// TestSourceWritesMissTheView: whatever the source of a gathered table does
// next — appends, in-place writes, a rollback, a retype — the gathered table
// keeps the cells it was given.
func TestSourceWritesMissTheView(t *testing.T) {
	src := viewSource(300)
	sel := Selection{0, 5, 17, 150, 299}
	stage := src.GatherInto("stage", slices.Clone(sel))
	want := materialized(src, sel)
	for i := 300; i < 900; i++ {
		src.MustInsert(Row{Int(int64(i + 1)), Str("new"), Int(0)})
	}
	src.Set(5, 1, Str("overwritten"))
	src.Shrink(100)
	if err := src.AlterColumnType("score", TypeFloat); err != nil {
		t.Fatal(err)
	}
	sameReads(t, "after the source's writes", stage, want)
}
