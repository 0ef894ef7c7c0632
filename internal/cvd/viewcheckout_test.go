package cvd

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// A split-by-rlist checkout copies no cell: the staging table views the
// catalog's (or its partition's) lanes through the version's positions, and a
// column is copied when it is first written. The tests here hold such a
// checkout to a materialized copy of it, before and after catalog writes, and
// pin the bytes a checkout allocates.

// viewCVD is a split-by-rlist CVD of n records and width data columns (a key,
// a string, a float and integers) with four versions: v1 every record, v2 v1
// less every third record plus 50, v3 v2 with 40 records changed, and v4 the
// merge of v2 and v3.
func viewCVD(t testing.TB, width, n int) (*CVD, relstore.Schema) {
	t.Helper()
	cols := []relstore.Column{{Name: "k", Type: relstore.TypeInt}, {Name: "s", Type: relstore.TypeString}, {Name: "f", Type: relstore.TypeFloat}}
	for len(cols) < width {
		cols = append(cols, relstore.Column{Name: fmt.Sprintf("a%02d", len(cols)), Type: relstore.TypeInt})
	}
	schema := relstore.MustSchema(cols, "k")
	row := func(k int) relstore.Row {
		r := relstore.Row{relstore.Int(int64(k)), relstore.Str(fmt.Sprintf("s%d", k%97)), relstore.Float(float64(k) / 4)}
		for len(r) < width {
			r = append(r, relstore.Int(int64(k*len(r)%1000)))
		}
		if k%11 == 0 {
			r[width-1] = relstore.Null()
		}
		return r
	}
	rows := make([]relstore.Row, n)
	for k := range rows {
		rows[k] = row(k)
	}
	c, err := Init(relstore.NewDatabase("views"), "views", schema, rows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var v2 []relstore.Row
	for k, r := range rows {
		if k%3 != 0 {
			v2 = append(v2, r)
		}
	}
	for k := n; k < n+50; k++ {
		v2 = append(v2, row(k))
	}
	v3 := slices.Clone(v2)
	for i := 0; i < 40; i++ {
		v3[i*len(v3)/40] = append(slices.Clone(v3[i*len(v3)/40][:1]), row(n + 100 + i)[1:]...)
	}
	for _, commit := range []struct {
		parents []vgraph.VersionID
		rows    []relstore.Row
	}{{[]vgraph.VersionID{1}, v2}, {[]vgraph.VersionID{2}, v3}, {[]vgraph.VersionID{2, 3}, v2}} {
		if _, err := c.Commit(commit.parents, commit.rows, schema, "m", "t"); err != nil {
			t.Fatal(err)
		}
	}
	return c, schema
}

// sameCheckout fails unless every read of got answers what the same read of
// want does, and reading copies none of got's columns.
func sameCheckout(t *testing.T, what string, got, want *relstore.Table) {
	t.Helper()
	shared := got.SharedColumns()
	if err := sameTable(got, want); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	all := make(relstore.Selection, 0, want.Len())
	for i := 0; i < want.Len(); i++ {
		all = append(all, int32(i))
		for j := range want.Schema.Columns {
			w := want.At(i, j)
			if !got.At(i, j).Identical(w) || got.IntAt(i, j) != want.IntAt(i, j) || got.StringAt(i, j) != want.StringAt(i, j) {
				t.Fatalf("%s: cell (%d,%d) reads differently from %v", what, i, j, w)
			}
		}
	}
	gb, _ := got.RowBlock(all, 1)
	wb, _ := want.RowBlock(all, 1)
	if !relstore.Row(gb).Identical(wb) || !slices.EqualFunc(got.Rows(), want.Rows(), relstore.Row.Identical) || !slices.Equal(got.DirtyRows(), want.DirtyRows()) {
		t.Fatalf("%s: rows, row blocks or dirty rows differ", what)
	}
	if got.StorageBytes() != want.StorageBytes() {
		t.Fatalf("%s: %d accounted bytes, want %d", what, got.StorageBytes(), want.StorageBytes())
	}
	for j, col := range want.Schema.Columns {
		if !reflect.DeepEqual(got.ColumnLanes(j), want.ColumnLanes(j)) {
			t.Fatalf("%s: the lanes of %s differ", what, col.Name)
		}
		gi, _ := got.GatherInts(col.Name, all)
		wi, _ := want.GatherInts(col.Name, all)
		if !slices.Equal(gi, wi) {
			t.Fatalf("%s: GatherInts of %s differ", what, col.Name)
		}
		for _, v := range []relstore.Value{relstore.Int(500), relstore.Float(30.25), relstore.Str("s50"), relstore.Null()} {
			gs, _ := got.FilterVec(col.Name, relstore.CmpGE, v)
			ws, _ := want.FilterVec(col.Name, relstore.CmpGE, v)
			if !slices.Equal(gs, ws) {
				t.Fatalf("%s: %s >= %v selects %d rows, want %d", what, col.Name, v, len(gs), len(ws))
			}
		}
	}
	if got.HasIndex() {
		for i := 0; i < want.Len(); i += 7 {
			g, gok := got.LookupIndex(want.At(i, 0))
			w, wok := want.LookupIndex(want.At(i, 0))
			if gok != wok || !g.Identical(w) {
				t.Fatalf("%s: rid %v looks up %v, want %v", what, want.At(i, 0), g, w)
			}
		}
	}
	if got.SharedColumns() != shared {
		t.Fatalf("%s: reading changed the shared columns from %d to %d", what, shared, got.SharedColumns())
	}
}

// TestCheckoutReadsAsACopy: partial, partitioned and multi-version checkouts
// answer every read as a materialized copy does, and go on doing so after
// the catalog is written: a commit's appends, a commit that retypes a column,
// and an append a refusing model rolls back.
func TestCheckoutReadsAsACopy(t *testing.T) {
	for _, partitioned := range []bool{false, true} {
		t.Run(fmt.Sprintf("partitioned=%v", partitioned), func(t *testing.T) {
			c, schema := viewCVD(t, 7, 600)
			if partitioned {
				m, err := c.Rlist()
				if err != nil {
					t.Fatal(err)
				}
				if err := m.ApplyPartitioning(vgraph.NewPartitioning(map[vgraph.VersionID]int{1: 0, 2: 1, 3: 1, 4: 1})); err != nil {
					t.Fatal(err)
				}
			}
			type held struct{ tab, copy *relstore.Table }
			var checkouts []held
			for k, versions := range [][]vgraph.VersionID{{1}, {2}, {3}, {4}, {3, 1}, {2, 3}} {
				tab, err := c.Checkout(versions, fmt.Sprintf("co%d", k))
				if err != nil {
					t.Fatal(err)
				}
				if len(versions) == 1 && tab.SharedColumns() != len(tab.Schema.Columns) {
					t.Fatalf("checkout of %v copied %d columns", versions, len(tab.Schema.Columns)-tab.SharedColumns())
				}
				checkouts = append(checkouts, held{tab, tab.Clone("copy")})
			}
			check := func(when string) {
				t.Helper()
				for k, h := range checkouts {
					sameCheckout(t, fmt.Sprintf("checkout %d %s", k, when), h.tab, h.copy)
				}
			}
			check("as checked out")

			latest := vgraph.VersionID(c.NumVersions())
			rows := make([]relstore.Row, 0, 20)
			for k := 0; k < 20; k++ {
				r := relstore.Row{relstore.Int(int64(10_000 + k)), relstore.Str("appended"), relstore.Float(1)}
				for len(r) < len(schema.Columns) {
					r = append(r, relstore.Int(7))
				}
				rows = append(rows, r)
			}
			if _, err := c.Commit([]vgraph.VersionID{latest}, rows, schema, "append", "t"); err != nil {
				t.Fatal(err)
			}
			check("after a commit's appends")

			retyped := schema.Clone()
			retyped.Columns[3].Type = relstore.TypeFloat
			for _, r := range rows {
				r[3] = relstore.Float(2.5)
			}
			if _, err := c.Commit([]vgraph.VersionID{latest}, rows, retyped, "retype", "t"); err != nil {
				t.Fatal(err)
			}
			check("after a commit retyped a column")

			c.model = &failingModel{DataModel: c.model, failNext: true}
			rows[0] = append(slices.Clone(rows[0][:1]), rows[0][1:]...)
			rows[0][1] = relstore.Str("refused")
			if _, err := c.Commit([]vgraph.VersionID{latest}, rows, retyped, "refused", "t"); err == nil {
				t.Fatal("the failing model accepted the commit")
			}
			rows[0][1] = relstore.Str("accepted")
			if _, err := c.Commit([]vgraph.VersionID{latest}, rows, retyped, "after the refusal", "t"); err != nil {
				t.Fatal(err)
			}
			check("after an append was rolled back and the rows reused")
		})
	}
}

// TestCheckoutCopiesWhatIsWritten: every mutation of a checkout leaves it as
// the same mutation leaves a materialized copy, copies the columns it writes
// and only those, and reaches neither the catalog nor a later checkout; the
// edited checkout then commits.
func TestCheckoutCopiesWhatIsWritten(t *testing.T) {
	c, _ := viewCVD(t, 7, 300)
	insert := func(tab *relstore.Table) {
		r := relstore.Row{relstore.Int(-1), relstore.Int(int64(99_999 + tab.Len())), relstore.Str("new"), relstore.Float(0)}
		for len(r) < len(tab.Schema.Columns) {
			r = append(r, relstore.Null())
		}
		tab.MustInsert(r)
	}
	mutations := []struct {
		name   string
		do     func(*relstore.Table)
		copied int // columns the mutation copies; -1: every one
	}{
		{"Set", func(tab *relstore.Table) { tab.Set(4, 2, relstore.Str("edited")) }, 1},
		{"UpdateWhere", func(tab *relstore.Table) {
			if _, err := tab.UpdateWhere(func(r relstore.Row) bool { return r[1].AsInt()%5 == 0 }, func(r relstore.Row) relstore.Row {
				r[3] = relstore.Float(-1)
				return r
			}); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"AddColumn", func(tab *relstore.Table) {
			if err := tab.AddColumn(relstore.Column{Name: fmt.Sprintf("note%d", len(tab.Schema.Columns)), Type: relstore.TypeString}); err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"AlterColumnType", func(tab *relstore.Table) {
			if err := tab.AlterColumnType("a04", relstore.TypeFloat); err != nil {
				t.Fatal(err)
			}
		}, 1},
		{"DeleteWhere", func(tab *relstore.Table) { tab.DeleteWhere(func(r relstore.Row) bool { return r[1].AsInt()%4 == 1 }) }, 0},
		{"SortBy", func(tab *relstore.Table) {
			if err := tab.SortBy(relstore.ClusterNone, "s"); err != nil {
				t.Fatal(err)
			}
		}, 0},
		{"Shrink", func(tab *relstore.Table) { tab.Shrink(tab.Len() / 2) }, 0},
		{"Insert", insert, -1},
		{"Set then Insert", func(tab *relstore.Table) { tab.Set(0, 5, relstore.Int(-5)); insert(tab) }, -1},
	}
	records := func() []relstore.Row {
		out := make([]relstore.Row, c.NumRecords())
		for r := range out {
			out[r], _ = c.RecordContent(vgraph.RecordID(r + 1))
		}
		return out
	}
	for _, v := range []vgraph.VersionID{1, 2, 3} {
		for _, m := range mutations {
			what := fmt.Sprintf("version %d %s", v, m.name)
			tab, err := c.Checkout([]vgraph.VersionID{v}, "work")
			if err != nil {
				t.Fatal(err)
			}
			width, before := len(tab.Schema.Columns), records()
			pristine, copied := tab.Clone("pristine"), tab.Clone("copied")
			m.do(tab)
			m.do(copied)
			sameCheckout(t, what, tab, copied)
			views := width - m.copied
			if m.copied < 0 {
				views = 0
			}
			if got := tab.SharedColumns(); got != views {
				t.Fatalf("%s: %d columns still views, want %d", what, got, views)
			}
			if !slices.EqualFunc(records(), before, relstore.Row.Identical) {
				t.Fatalf("%s: the edit reached the catalog", what)
			}
			again, err := c.Checkout([]vgraph.VersionID{v}, "again")
			if err != nil {
				t.Fatal(err)
			}
			sameCheckout(t, what+": a later checkout", again, pristine)
			c.DiscardCheckout("again")
			if _, err := c.CommitTable("work", m.name, "t"); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
	}
}

// TestCheckoutViewsRaceCommits: checkouts read their staging tables — every
// cell, a filter, a write to one column — while commits append to the
// catalog, retype a column of it and roll an append back, on an unpartitioned
// and a partitioned CVD. Run with -race.
func TestCheckoutViewsRaceCommits(t *testing.T) {
	for _, partitioned := range []bool{false, true} {
		t.Run(fmt.Sprintf("partitioned=%v", partitioned), func(t *testing.T) {
			c, schema := viewCVD(t, 5, 400)
			if partitioned {
				m, _ := c.Rlist()
				if err := m.ApplyPartitioning(vgraph.NewPartitioning(map[vgraph.VersionID]int{1: 0, 2: 1, 3: 1, 4: 1})); err != nil {
					t.Fatal(err)
				}
			}
			versions := c.NumVersions()
			const readers, commits = 3, 30
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						v := vgraph.VersionID(1 + (g+i)%versions)
						name := fmt.Sprintf("r%d_%d", g, i)
						tab, err := c.Checkout([]vgraph.VersionID{v}, name)
						if err != nil {
							t.Error(err)
							return
						}
						copied := tab.Clone("copied")
						if tab.Len() != len(c.RecordsOf(v)) {
							t.Errorf("checkout of version %d: %d rows, want %d", v, tab.Len(), len(c.RecordsOf(v)))
						}
						gs, _ := tab.FilterVec("f", relstore.CmpGE, relstore.Float(20))
						ws, _ := copied.FilterVec("f", relstore.CmpGE, relstore.Float(20))
						tab.Set(0, 2, relstore.Str("mine"))
						copied.Set(0, 2, relstore.Str("mine"))
						if err := sameTable(tab, copied); err != nil || !slices.Equal(gs, ws) {
							t.Errorf("checkout of version %d changed under the commits: %v", v, err)
							return
						}
						c.DiscardCheckout(name)
					}
				}(g)
			}
			latest := vgraph.VersionID(4)
			widened := schema.Clone()
			for i := 0; i < commits; i++ {
				row := relstore.Row{relstore.Int(int64(50_000 + i)), relstore.Str("w"), relstore.Float(1), relstore.Int(1), relstore.Int(2)}
				if i == commits/3 {
					widened.Columns[4].Type = relstore.TypeFloat
				}
				if i >= commits/3 {
					row[4] = relstore.Float(0.5)
				}
				if i%7 == 3 {
					model := c.model
					_ = c.WithExclusive(func() error { c.model = &failingModel{DataModel: model, failNext: true}; return nil })
					if _, err := c.Commit([]vgraph.VersionID{latest}, []relstore.Row{row}, widened, "refused", "w"); err == nil {
						t.Fatal("the failing model accepted the commit")
					}
					_ = c.WithExclusive(func() error { c.model = model; return nil })
				}
				if _, err := c.Commit([]vgraph.VersionID{latest}, []relstore.Row{row}, widened, "append", "w"); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestCheckoutAllocations is the checkout's allocation gate (counts only, no
// wall-clock): a checkout of a version spread over a catalog twice its size
// allocates at most 8 bytes per record of the version — its position vector
// and a constant — whatever the number of columns. When a checkout still
// gathered every column into lanes of its own, it allocated 86 B per record
// here on 7 columns and 215 B on 21.
func TestCheckoutAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the program's")
	}
	const records = 40_000
	for _, width := range []int{7, 21} {
		c, schema := viewCVD(t, width, records)
		// v5 keeps every other record of v1: the positional probe, not a full
		// cover.
		var rows []relstore.Row
		for r := 1; r <= records; r += 2 {
			row, _ := c.RecordContent(vgraph.RecordID(r))
			rows = append(rows, row)
		}
		v, err := c.Commit([]vgraph.VersionID{1}, rows, schema, "half", "t")
		if err != nil {
			t.Fatal(err)
		}
		n := len(c.RecordsOf(v))
		checkout := func() {
			if _, err := c.Checkout([]vgraph.VersionID{v}, "gate"); err != nil {
				t.Fatal(err)
			}
			c.DiscardCheckout("gate")
		}
		checkout()
		var bytes []uint64
		var ms runtime.MemStats
		for i := 0; i < 9; i++ {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			checkout()
			runtime.ReadMemStats(&ms)
			bytes = append(bytes, ms.TotalAlloc-before)
		}
		sort.Slice(bytes, func(i, j int) bool { return bytes[i] < bytes[j] })
		per := float64(bytes[len(bytes)/2]) / float64(n)
		t.Logf("%d columns: a checkout of %d records allocates %d B, %.2f B per record", width, n, bytes[len(bytes)/2], per)
		if per > 8 {
			t.Errorf("%d columns: a checkout allocates %.2f B per record of the version, want <= 8", width, per)
		}
	}
}

// TestCheckoutRefusesDuplicateRID: a data table holding a rid twice gives a
// join the unique rid index refuses, and the checkout says so instead of
// handing out duplicate rows. The table holds the catalog's rows in reverse,
// so the join probes every row rather than reading the set's positions.
func TestCheckoutRefusesDuplicateRID(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	data := relstore.NewTable("dup", c.catalog.Schema)
	for i := c.catalog.Len() - 1; i >= 0; i-- {
		data.AppendRow(c.catalog.RowAt(i))
	}
	rid := data.IntAt(0, 0)
	data.AppendRow(data.RowAt(0)) // the rid of its first row, again
	for v := vgraph.VersionID(1); int(v) <= c.NumVersions(); v++ {
		set := c.recordSet(v)
		_, err := joinCheckout(data, set, data.Len(), "dup")
		if holds := set.Contains(rid); holds != (err != nil) {
			t.Fatalf("version %d (holding rid %d: %v): the join gave %v", v, rid, holds, err)
		}
	}
}

// TestNoModelHandsOutARIDTwice: on every model, a table of the model's that
// holds a copy of its first row — the rid of that row, twice — gives a
// checkout that either is refused or holds each of the version's records once.
// A model that dropped its staging table's index error handed out the rid
// twice.
func TestNoModelHandsOutARIDTwice(t *testing.T) {
	for _, model := range allModels {
		db, c := buildProteinCVD(t, model)
		for _, name := range db.TableNames() {
			if tbl, ok := db.Table(name); ok && tbl.Len() > 0 && tbl.Schema.ColumnIndex(ridColumn) == 0 {
				tbl.AppendRow(tbl.RowAt(0))
			}
		}
		for v := vgraph.VersionID(1); int(v) <= c.NumVersions(); v++ {
			out, err := c.Checkout([]vgraph.VersionID{v}, "dup")
			if err != nil {
				continue
			}
			rids := make([]int64, out.Len())
			for i := range rids {
				rids[i] = out.IntAt(i, 0)
			}
			slices.Sort(rids)
			if want := sortedRIDs(c.RecordsOf(v)); !slices.Equal(rids, want) {
				t.Errorf("%v: version %d checked out rids %v, want %v", model, v, rids, want)
			}
			c.DiscardCheckout("dup")
		}
	}
}

// BenchmarkCheckout checks out a 32 K-record version whose records are spread
// over a 48 K-record catalog of 20 integer columns and the rid (every other
// record of version 1 replaced), as the split-by-rlist checkout does: the join
// of the version's record set with the catalog, into a staging table indexed
// on its rids. It reports the time per record checked out and the bytes per
// checkout.
func BenchmarkCheckout(b *testing.B) {
	const n = 32 << 10
	rng := rand.New(rand.NewSource(14))
	schema, rows := benchRows(rng, n, 0)
	c, err := Init(relstore.NewDatabase("bench"), "d", schema, rows, Options{})
	if err != nil {
		b.Fatal(err)
	}
	_, fresh := benchRows(rng, n, 0)
	for k := 0; k < n; k += 2 {
		rows[k] = fresh[k]
	}
	v, err := c.Commit([]vgraph.VersionID{1}, rows, schema, "half", "b")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := c.Checkout([]vgraph.VersionID{v}, "bench")
		if err != nil || tab.Len() != n {
			b.Fatalf("checkout: %v", err)
		}
		c.DiscardCheckout("bench")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
}
