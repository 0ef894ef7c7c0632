package cvd

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// The record catalog is one rid-ordered table of column lanes per CVD, record
// r at row r-1; under split-by-rlist it is the model's data table itself. The
// tests here pin that: one stored form per record whichever way it is read,
// one table under split-by-rlist, a bounded number of bytes per record, and
// readers that race commits appending to the shared table (run with -race).

// checkCatalogAgrees verifies, for every record of version v, that catalog row
// r-1, RecordContent(r) and the row a checkout of v returns for r are the same
// cells.
func checkCatalogAgrees(t *testing.T, c *CVD, v vgraph.VersionID) {
	t.Helper()
	tab, err := c.Checkout([]vgraph.VersionID{v}, "agree")
	if err != nil {
		t.Fatal(err)
	}
	defer c.DiscardCheckout("agree")
	rids := c.RecordsOf(v)
	if tab.Len() != len(rids) {
		t.Fatalf("checkout of version %d has %d rows, the version %d records", v, tab.Len(), len(rids))
	}
	checked := make(map[vgraph.RecordID]relstore.Row, tab.Len())
	for _, row := range tab.Rows() {
		checked[vgraph.RecordID(row[0].AsInt())] = row[1:]
	}
	for _, rid := range rids {
		content, ok := c.RecordContent(rid)
		if !ok {
			t.Fatalf("version %d holds record %d, RecordContent does not", v, rid)
		}
		lanes := c.catalog.RowAt(int(rid) - 1)
		if got := vgraph.RecordID(lanes[0].AsInt()); got != rid {
			t.Fatalf("catalog row %d carries rid %d", rid-1, got)
		}
		if err := sameRows([]relstore.Row{lanes[1:]}, []relstore.Row{content}); err != nil {
			t.Fatalf("record %d: catalog row against RecordContent: %v", rid, err)
		}
		if err := sameRows([]relstore.Row{checked[rid]}, []relstore.Row{content}); err != nil {
			t.Fatalf("record %d: checkout of version %d against RecordContent: %v", rid, v, err)
		}
	}
}

// TestRecordContentIsStoredForm: RecordContent returns a record as the schema
// in force stores it, not as it was committed. A column generalized from
// integer to decimal and a widened schema change the form of every older
// record, and a checkout returns the same cells, on every model.
func TestRecordContentIsStoredForm(t *testing.T) {
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			_, c := buildProteinCVD(t, model)
			cols := append([]relstore.Column(nil), proteinSchema().Columns...)
			cols[2].Type = relstore.TypeFloat // neighborhood: integer → decimal
			cols = append(cols, relstore.Column{Name: "note", Type: relstore.TypeString})
			evolved := relstore.MustSchema(cols, proteinSchema().PrimaryKey...)
			rows := []relstore.Row{ // r2 and r3 as version 4 holds them, and a new record
				{relstore.Str("ENSP273047"), relstore.Str("ENSP235932"), relstore.Float(0), relstore.Int(87), relstore.Int(0), relstore.Null()},
				{relstore.Str("ENSP300413"), relstore.Str("ENSP274242"), relstore.Float(426), relstore.Int(0), relstore.Int(164), relstore.Null()},
				{relstore.Str("ENSP999999"), relstore.Str("ENSP000001"), relstore.Float(1.5), relstore.Int(1), relstore.Int(1), relstore.Str("new")},
			}
			v, err := c.Commit([]vgraph.VersionID{4}, rows, evolved, "evolve", "t")
			if err != nil {
				t.Fatal(err)
			}
			rids := c.RecordsOf(v)
			if len(rids) != 3 || rids[0] != 2 || rids[1] != 3 {
				t.Fatalf("version %d holds %v: the generalized rows did not resolve to records 2 and 3", v, rids)
			}
			r3, _ := c.RecordContent(3)
			want := relstore.Row{relstore.Str("ENSP300413"), relstore.Str("ENSP274242"), relstore.Float(426), relstore.Int(0), relstore.Int(164), relstore.Null()}
			if err := sameRows([]relstore.Row{r3}, []relstore.Row{want}); err != nil {
				t.Fatalf("record 3, committed with an integer neighborhood and no note: %v", err)
			}
			checkCatalogAgrees(t, c, v)
		})
	}
}

// TestCatalogAgreesProperty drives a generated history — commits of churned
// parent rows, now and then under an evolved schema — on every model, with and
// without a primary key, and after every commit holds the catalog, RecordContent
// and a checkout of the new version to the same cells. Under split-by-rlist the
// catalog is the model's data table, not a copy of it.
func TestCatalogAgreesProperty(t *testing.T) {
	for _, model := range allModels {
		for _, withPK := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/pk=%v", model, withPK), func(t *testing.T) {
				for seed := int64(1); seed <= 4; seed++ {
					w := newTwins(t, &chooser{rng: rand.New(rand.NewSource(seed))}, model, withPK, 1)
					checkCatalogAgrees(t, w.live, 1)
					for i := 0; i < 10; i++ {
						w.rawStep()
						c := w.live
						checkCatalogAgrees(t, c, c.Versions()[c.NumVersions()-1])
						if int(c.nextRID)-1 != c.catalog.Len() || c.NumRecords() != int64(c.catalog.Len()) {
							t.Fatalf("catalog of %d rows, next rid %d, NumRecords %d", c.catalog.Len(), c.nextRID, c.NumRecords())
						}
						if _, ok := c.model.(*rlistModel); ok && c.db.MustTable(rlistDataTabName(c.name)) != c.catalog {
							t.Fatal("split-by-rlist's data table is not the catalog")
						}
					}
				}
			})
		}
	}
}

// TestRlistDataTableIsCatalog: split-by-rlist keeps one copy of every record.
// A full-version checkout and a checkpoint capture (SnapshotClone) both read
// the data table's column vectors through views, which cost the table nothing:
// the next commit appends to it in place, past what they hold.
func TestRlistDataTableIsCatalog(t *testing.T) {
	db := relstore.NewDatabase("one")
	schema := relstore.MustSchema([]relstore.Column{{Name: "k", Type: relstore.TypeInt}, {Name: "v", Type: relstore.TypeString}}, "k")
	rows := []relstore.Row{{relstore.Int(1), relstore.Str("a")}, {relstore.Int(2), relstore.Str("b")}, {relstore.Int(3), relstore.Str("c")}}
	c, err := Init(db, "d", schema, rows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := db.MustTable(rlistDataTabName(c.name))
	if data != c.catalog {
		t.Fatal("the data table registered in the database is not the catalog")
	}
	full, err := c.Checkout([]vgraph.VersionID{1}, "full") // version 1 is the whole table: shared, not copied
	if err != nil {
		t.Fatal(err)
	}
	capture := c.catalog.SnapshotClone()
	if n := len(schema.Columns) + 1; data.SharedColumns() != 0 || full.SharedColumns() != n || capture.SharedColumns() != n {
		t.Fatalf("columns that copy before the next write: data table %d, checkout %d, capture %d, want 0, %d and %d", data.SharedColumns(), full.SharedColumns(), capture.SharedColumns(), n, n)
	}
	if _, err := c.Commit([]vgraph.VersionID{1}, append(rows, relstore.Row{relstore.Int(4), relstore.Str("d")}), schema, "append", "t"); err != nil {
		t.Fatal(err)
	}
	if db.MustTable(rlistDataTabName(c.name)) != c.catalog || data.Len() != 4 {
		t.Fatal("the commit did not append to the one data table")
	}
	if n := data.SharedColumns(); n != 0 {
		t.Fatalf("%d columns of the data table shared after the commit's append", n)
	}
	for _, held := range []*relstore.Table{capture, full} {
		if held.Len() != 3 || held.At(2, 2).S != "c" {
			t.Fatalf("the append reached %s: %d rows, last %v", held.Name, held.Len(), held.RowAt(held.Len()-1))
		}
	}
	// The versioning table is charged as the (vid, rlist) table it stands for,
	// 32 B a version plus 8 B a record of it: versions of 3 and 4 records here.
	if got, want := c.StorageBytes(), data.StorageBytes()+2*32+8*(3+4); got != want {
		t.Fatalf("StorageBytes %d, want the data table and the versioning table: %d", got, want)
	}
	if _, isTable := db.Table(c.name + "_versions"); isTable || !db.HasTable(c.name+"_versions") {
		t.Fatal("the versioning table is not a relation of the database")
	}
	if got, want := db.StorageBytes(), c.StorageBytes()+db.MustTable(c.meta.name).StorageBytes()+full.StorageBytes(); got != want {
		t.Fatalf("the database accounts %d B, want the model's, the metadata table's and the checkout's %d", got, want)
	}
}

// TestReadsOffTheLock: every read of a split-by-rlist CVD loads the state its
// last writer published and reads nothing else, so each goes through while the
// CVD's mutex is held (as by a commit in flight) — on an unpartitioned and a
// partitioned CVD, a multi-version checkout and an evolved schema included —
// and answers what it answers once the mutex is released.
func TestReadsOffTheLock(t *testing.T) {
	for _, partitioned := range []bool{false, true} {
		t.Run(fmt.Sprintf("partitioned=%v", partitioned), func(t *testing.T) {
			_, c := buildProteinCVD(t, SplitByRlist)
			wide := proteinSchema()
			wide.Columns = append(wide.Columns, relstore.Column{Name: "note", Type: relstore.TypeString})
			widened := []relstore.Row{append(prow("ENSP9", "ENSP0", 1, 1, 1), relstore.Str("n"))}
			if _, err := c.Commit([]vgraph.VersionID{4}, widened, wide, "widen", "t"); err != nil {
				t.Fatal(err)
			}
			if partitioned {
				m, _ := c.Rlist()
				if err := m.ApplyPartitioning(vgraph.NewPartitioning(map[vgraph.VersionID]int{1: 0, 2: 0, 3: 1, 4: 1, 5: 1})); err != nil {
					t.Fatal(err)
				}
				if _, err := c.Commit([]vgraph.VersionID{5}, widened, wide, "same", "t"); err != nil {
					t.Fatal(err)
				}
			}
			for name, read := range everyRead(t, c) {
				c.mu.Lock()
				done := make(chan any, 1)
				go func() { done <- read("off") }()
				var got any
				select {
				case got = <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("%s waits for the lock", name)
				}
				c.mu.Unlock()
				if want := read("on"); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s with the lock held: %v\nafter it is released: %v", name, got, want)
				}
			}
		})
	}
}

// everyRead returns each read API of c, its answer made comparable; tag names
// what a checkout's staging table is called, so that a read can run twice.
func everyRead(t *testing.T, c *CVD) map[string]func(tag string) any {
	t.Helper()
	pred, err := c.NamedPredicate("cooccurrence", ">=", relstore.Int(0))
	if err != nil {
		t.Fatal(err)
	}
	last := vgraph.VersionID(c.NumVersions())
	checkout := func(vs ...vgraph.VersionID) func(string) any {
		return func(tag string) any {
			tab, err := c.Checkout(vs, tag)
			if err != nil {
				return err.Error()
			}
			c.DiscardCheckout(tag)
			return []any{tab.Schema, tab.Rows()}
		}
	}
	return map[string]func(string) any{
		"Checkout(1)":       checkout(1),
		"Checkout(last)":    checkout(last),
		"Checkout(last, 3)": checkout(last, 3),
		"Checkout(1, 2, 3)": checkout(1, 2, 3),
		"SelectVersions": func(string) any {
			a, err := c.SelectVersions([]vgraph.VersionID{1, last}, pred, 0)
			return []any{a.Catalog.Schema, a.Rows(), err}
		},
		"ScanVersions": func(string) any {
			rows, err := c.ScanVersions([]vgraph.VersionID{last, 2}, pred, 3)
			return []any{rows, err}
		},
		"AggregateByVersion": func(string) any {
			counts, err := c.AggregateByVersion(nil, pred, CountAgg())
			return []any{counts, err}
		},
		"VersionsWhere": func(string) any {
			vs, err := c.VersionsWhere(nil, CountAgg(), func(v relstore.Value) bool { return v.AsInt() > 3 })
			return []any{vs, err}
		},
		"Snapshot": func(string) any {
			catalog, vs, err := c.Snapshot()
			out := []any{catalog.Schema, catalog.Rows(), err}
			for _, v := range vs {
				out = append(out, *v.Meta, v.Records.Slice())
			}
			return out
		},
		"Diff": func(string) any {
			d, err := c.Diff(1, last)
			return []any{d, err}
		},
		"VDiff": func(string) any {
			d, err := c.VDiff([]vgraph.VersionID{last}, []vgraph.VersionID{1, 2})
			return []any{d, err}
		},
		"VIntersect": func(string) any {
			d, err := c.VIntersect([]vgraph.VersionID{2, 3, last})
			return []any{d, err}
		},
		"Versions":    func(string) any { return c.Versions() },
		"NumVersions": func(string) any { return c.NumVersions() },
		"Meta": func(string) any {
			m, ok := c.Meta(last)
			return []any{*m, ok}
		},
		"AllMeta": func(string) any {
			var out []VersionMeta
			for _, m := range c.AllMeta() {
				out = append(out, *m)
			}
			return out
		},
		"LatestVersion": func(string) any {
			v, ok := c.LatestVersion()
			return []any{v, ok}
		},
		"Parents":     func(string) any { return c.Parents(last) },
		"Ancestors":   func(string) any { return c.Ancestors(last) },
		"Descendants": func(string) any { return c.Descendants(1) },
		"RecordContent": func(string) any {
			row, ok := c.RecordContent(vgraph.RecordID(c.NumRecords()))
			return []any{row, ok}
		},
		"RecordsOf":  func(string) any { return c.RecordsOf(last) },
		"NumRecords": func(string) any { return c.NumRecords() },
		"Schema":     func(string) any { return c.Schema() },
		"NamedPredicate": func(string) any {
			p, err := c.NamedPredicate("note", "=", relstore.Str("n"))
			return []any{*p.(*columnPredicate), err}
		},
		"SumAgg": func(string) any {
			sum, err := c.SumAgg("coexpression")
			if err != nil {
				return err
			}
			sums, err := c.AggregateByVersion(nil, nil, sum)
			return []any{sums, err}
		},
		"InitDelta": func(string) any {
			versions, delta, schema := c.InitDelta()
			return []any{versions, delta, schema}
		},
	}
}

// sameTable compares two tables cell by cell, schema included.
func sameTable(a, b *relstore.Table) error {
	if a.Len() != b.Len() || len(a.Schema.Columns) != len(b.Schema.Columns) {
		return fmt.Errorf("%d×%d and %d×%d", a.Len(), len(a.Schema.Columns), b.Len(), len(b.Schema.Columns))
	}
	for j, col := range a.Schema.Columns {
		if col != b.Schema.Columns[j] {
			return fmt.Errorf("column %d is %v and %v", j, col, b.Schema.Columns[j])
		}
		for i := 0; i < a.Len(); i++ {
			if x, y := a.At(i, j), b.At(i, j); !x.Identical(y) {
				return fmt.Errorf("row %d column %q is %v and %v", i, col.Name, x, y)
			}
		}
	}
	return nil
}

// TestPrivateCatalogOffDatabase: under the in-memory models, which have no
// rid-ordered master table, the catalog is private to the CVD — the database,
// whose StorageBytes is the paper's storage axis, does not hold it.
func TestPrivateCatalogOffDatabase(t *testing.T) {
	for _, model := range allModels[1:] {
		t.Run(model.String(), func(t *testing.T) {
			db, c := buildProteinCVD(t, model)
			if db.HasTable(c.catalog.Name) {
				t.Fatalf("catalog %q is registered in the database", c.catalog.Name)
			}
			if _, err := c.ExportState(); !errors.Is(err, ErrInMemoryModel) || !strings.Contains(err.Error(), model.String()) {
				t.Fatalf("export of a %s CVD: %v", model, err)
			}
		})
	}
}

// TestRestoreRefusesSparseCatalog: a catalog that is not one row per record id
// handed out, row r-1 carrying rid r, is refused with the CVD, the row and the
// rid found.
func TestRestoreRefusesSparseCatalog(t *testing.T) {
	for name, tc := range map[string]struct {
		damage func(c *CVD, st *PersistentState)
		want   string
	}{
		"short":   {func(c *CVD, st *PersistentState) { st.NextRID++ }, "holds 7 records where record ids 1 to 8 were handed out"},
		"swapped": {func(c *CVD, st *PersistentState) { c.catalog.Set(2, 0, relstore.Int(9)) }, "row 2 of record catalog interaction_data carries record id 9, want 3"},
		"schema":  {func(c *CVD, st *PersistentState) { st.Schema.Columns[2].Type = relstore.TypeFloat }, "has schema"},
	} {
		t.Run(name, func(t *testing.T) {
			db, c := buildProteinCVD(t, SplitByRlist)
			st, err := c.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(c, st)
			if _, err := Restore(db, st); err == nil || !strings.Contains(err.Error(), "interaction") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore of a %s catalog: %v", name, err)
			}
		})
	}
}

// TestCatalogBytesPerRecord is the memory gate: 20 000 records of 20 integer
// attributes committed over 40 versions retain at most 450 bytes each — the
// lanes (about 9 bytes a cell), the rid index, the record index and the
// version structures — where a boxed second copy of every record alone took
// 72 bytes a cell. No wall clock: a retained-heap count after two collections.
func TestCatalogBytesPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the program's")
	}
	const perCommit, commits, attrs = 500, 40, 20
	cols := []relstore.Column{{Name: "key", Type: relstore.TypeInt}}
	for i := 1; i < attrs; i++ {
		cols = append(cols, relstore.Column{Name: fmt.Sprintf("a%02d", i), Type: relstore.TypeInt})
	}
	schema := relstore.MustSchema(cols, "key")
	rng := rand.New(rand.NewSource(7))
	batch := func(first int) []relstore.Row {
		rows := make([]relstore.Row, perCommit)
		for k := range rows {
			rows[k] = relstore.Row{relstore.Int(int64(first + k))}
			for i := 1; i < attrs; i++ {
				rows[k] = append(rows[k], relstore.Int(rng.Int63n(1_000_000)))
			}
		}
		return rows
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	c, err := Init(relstore.NewDatabase("gate"), "d", schema, batch(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < commits; i++ {
		if _, err := c.Commit([]vgraph.VersionID{1}, batch(i*perCommit), schema, "more", "t"); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	records := c.NumRecords()
	if records != perCommit*commits {
		t.Fatalf("%d records, want %d", records, perCommit*commits)
	}
	per := float64(after-before) / float64(records)
	t.Logf("%d records retain %.0f B each (%d B in all)", records, per, after-before)
	if per > 450 {
		t.Errorf("a record retains %.0f B, want <= 450", per)
	}
	runtime.KeepAlive(c)
}

// TestVersionBytesPerEdge is the memory gate per (version, record) edge: on an
// ingest-shaped history — a seed of 13 000 records over 100 versions, then 300
// commits that each check out one of the 8 newest versions in rotation, update
// 30 rows, append 100 and commit the table — the retained heap grows by at most
// 6 bytes per edge the new versions add, their new records' lanes included. A
// version's records are listed once, as its compressed record set; an rlist
// array beside it alone would cost 8 bytes an edge. No wall clock: HeapInuse
// after a collection.
func TestVersionBytesPerEdge(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the program's")
	}
	const attrs, seedRecords, seedVersions, commits, heads = 20, 8_000, 100, 300, 8
	cols := []relstore.Column{{Name: "key", Type: relstore.TypeInt}}
	for i := 1; i < attrs; i++ {
		cols = append(cols, relstore.Column{Name: fmt.Sprintf("a%02d", i), Type: relstore.TypeInt})
	}
	schema := relstore.MustSchema(cols, "key")
	rng := rand.New(rand.NewSource(11))
	key := int64(0)
	record := func() relstore.Row {
		key++
		row := relstore.Row{relstore.Int(key)}
		for i := 1; i < attrs; i++ {
			row = append(row, relstore.Int(rng.Int63n(1_000_000)))
		}
		return row
	}
	seed := make([]relstore.Row, seedRecords)
	for i := range seed {
		seed[i] = record()
	}
	c, err := Init(relstore.NewDatabase("edges"), "d", schema, seed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// derive commits a child of parent that updates and appends rows, through a
	// checked-out table as a client does.
	derive := func(parent vgraph.VersionID, updates, appends int) {
		work, err := c.Checkout([]vgraph.VersionID{parent}, "work")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < updates; i++ {
			work.Set(rng.Intn(work.Len()), 2, relstore.Int(rng.Int63n(1_000_000)))
		}
		for i := 0; i < appends; i++ {
			if err := work.Insert(append(relstore.Row{relstore.Int(int64(-1 - i))}, record()...)); err != nil { // a fresh rid: any unused one
				t.Fatal(err)
			}
		}
		if _, err := c.CommitTable("work", "m", "t"); err != nil {
			t.Fatal(err)
		}
	}
	for v := 2; v <= seedVersions; v++ {
		derive(vgraph.VersionID(1+rng.Intn(v-1)), 25, 25)
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapInuse
	}
	before, seeded := heap(), c.NumVersions()
	for i := 0; i < commits; i++ {
		derive(vgraph.VersionID(c.NumVersions()-i%heads), 30, 100)
	}
	after := heap()
	var edges int64
	for _, v := range c.Versions()[seeded:] {
		edges += c.Bipartite().NumRecordsOf(v)
	}
	per := (float64(after) - float64(before)) / float64(edges)
	t.Logf("%d records; %d versions add %d edges and retain %.2f B each (%d B in all)", c.NumRecords(), commits, edges, per, int64(after)-int64(before))
	if per > 6 {
		t.Errorf("an edge retains %.2f B, want <= 6", per)
	}
	runtime.KeepAlive(c)
}

// TestReadersRaceCatalogAppends: checkouts, selects and record reads share the
// catalog's lanes with commits that append to them, add a column to them and
// rewrite one in a wider type. Every read loads the view the last commit
// published and takes no lock. Run with -race.
func TestReadersRaceCatalogAppends(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	pred, err := c.NamedPredicate("cooccurrence", ">=", relstore.Int(0))
	if err != nil {
		t.Fatal(err)
	}
	const commits, readers = 30, 4
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
				versions := c.Versions()
				v := versions[(i+g)%len(versions)]
				name := fmt.Sprintf("r%d_%d", g, i)
				tab, err := c.Checkout([]vgraph.VersionID{v}, name)
				if err != nil {
					t.Errorf("checkout of version %d: %v", v, err)
					return
				}
				if want := len(c.RecordsOf(v)); tab.Len() != want {
					t.Errorf("checkout of version %d: %d rows, want %d", v, tab.Len(), want)
				}
				c.DiscardCheckout(name)
				rows, err := c.ScanVersions([]vgraph.VersionID{v}, pred, 0)
				if err != nil || len(rows) != tab.Len() {
					t.Errorf("select over version %d: %d rows, %v", v, len(rows), err)
				}
				if _, ok := c.RecordContent(vgraph.RecordID(1 + i%int(c.NumRecords()))); !ok {
					t.Errorf("a record below NumRecords is missing")
				}
			}
		}(g)
	}
	schema := proteinSchema()
	for i := 0; i < commits; i++ {
		row := prow(fmt.Sprintf("ENSP9%05d", i), "ENSP000000", int64(i), 1, 1)
		if i >= commits/3 {
			if i == commits/3 {
				schema.Columns = append(schema.Columns, relstore.Column{Name: "note", Type: relstore.TypeString})
			}
			row = append(row, relstore.Str("n"))
		}
		if i >= 2*commits/3 {
			schema.Columns[2].Type = relstore.TypeFloat
			row[2] = relstore.Float(float64(i) + 0.5)
		}
		if _, err := c.Commit([]vgraph.VersionID{4}, []relstore.Row{row}, schema, "append", "w"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := c.NumRecords(); got != 7+commits {
		t.Fatalf("%d records, want %d", got, 7+commits)
	}
}

// TestReadStateIsConsistent: readers loop while a writer commits — widening
// the schema on the way, on an unpartitioned and a partitioned CVD — and
// every state they observe agrees with itself: as many versions as metadata
// rows, each version's metadata counting its set, and a catalog that holds
// every record of the sets. The public reads each load a state of their own,
// so they can only grow from one call to the next. Run with -race.
func TestReadStateIsConsistent(t *testing.T) {
	for _, partitioned := range []bool{false, true} {
		t.Run(fmt.Sprintf("partitioned=%v", partitioned), func(t *testing.T) {
			_, c := buildProteinCVD(t, SplitByRlist)
			if partitioned {
				m, _ := c.Rlist()
				if err := m.ApplyPartitioning(vgraph.NewPartitioning(map[vgraph.VersionID]int{1: 0, 2: 0, 3: 1, 4: 1})); err != nil {
					t.Fatal(err)
				}
			}
			const commits, readers = 40, 3
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
						if err := stateAgrees(c.read()); err != nil {
							t.Error(err)
							return
						}
						nv, nm := len(c.Versions()), len(c.AllMeta())
						catalog, vs, err := c.Snapshot()
						if err != nil || nv > nm || nm > len(vs) {
							t.Errorf("Versions %d, then AllMeta %d, then Snapshot %d versions, %v", nv, nm, len(vs), err)
							return
						}
						for _, s := range vs {
							if hi, _ := s.Records.Max(); s.Meta.NumRecords != s.Records.Len() || int(hi) > catalog.Len() {
								t.Errorf("Snapshot: version %d counts %d records, holds %d up to record %d, of a catalog of %d", s.Meta.ID, s.Meta.NumRecords, s.Records.Len(), hi, catalog.Len())
								return
							}
						}
						v := vgraph.VersionID(1 + (i+g)%len(vs))
						name := fmt.Sprintf("c%d_%d", g, i)
						tab, err := c.Checkout([]vgraph.VersionID{v}, name)
						if err != nil || int64(tab.Len()) != vs[v-1].Records.Len() {
							t.Errorf("checkout of version %d: %v", v, err)
							return
						}
						c.DiscardCheckout(name)
					}
				}(g)
			}
			schema := proteinSchema()
			for i := 0; i < commits; i++ {
				row := prow(fmt.Sprintf("ENSP8%05d", i), "ENSP000000", int64(i), 1, 1)
				if i >= commits/2 {
					if i == commits/2 {
						schema.Columns = append(schema.Columns, relstore.Column{Name: "note", Type: relstore.TypeString})
					}
					row = append(row, relstore.Str("n"))
				}
				parent := vgraph.VersionID(c.NumVersions())
				if _, err := c.Commit([]vgraph.VersionID{parent}, []relstore.Row{row}, schema, "grow", "w"); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
			if err := stateAgrees(c.read()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// stateAgrees checks that a published state is one CVD as one writer left it.
func stateAgrees(st *readState) error {
	if len(st.sets) != len(st.metas) || int(st.latest) > len(st.metas) {
		return fmt.Errorf("a state of %d record sets, %d metadata rows and latest version %d", len(st.sets), len(st.metas), st.latest)
	}
	for i, s := range st.sets {
		m := st.metas[i]
		if hi, _ := s.Max(); m.ID != vgraph.VersionID(i+1) || m.NumRecords != s.Len() || int(hi) > st.catalog.Len() {
			return fmt.Errorf("version %d: metadata of version %d counting %d records, a set of %d up to record %d, a catalog of %d", i+1, m.ID, m.NumRecords, s.Len(), hi, st.catalog.Len())
		}
		if st.parts != nil && (i >= len(st.partOf) || st.partOf[i] >= len(st.parts)) {
			return fmt.Errorf("version %d is in no partition of %d", i+1, len(st.parts))
		}
	}
	if len(st.catalog.Schema.Columns) != len(st.schema.Columns)+1 {
		return fmt.Errorf("a catalog of %d columns under a schema of %d", len(st.catalog.Schema.Columns), len(st.schema.Columns))
	}
	return nil
}
