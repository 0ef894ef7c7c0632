package core

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cvd"
	"repro/internal/durable"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// metadataTable builds the metadata table as an eight-column relstore table
// indexed on vid, one row per version of metas: the table manifest version 6
// kept beside the CVD head, and the reference the database's metadata
// relation is charged as.
func metadataTable(t *testing.T, cvdName string, metas []*cvd.VersionMeta) *relstore.Table {
	t.Helper()
	tab := relstore.NewTable(cvdName+"_metadata", relstore.MustSchema([]relstore.Column{
		{Name: "vid", Type: relstore.TypeInt},
		{Name: "parents", Type: relstore.TypeIntArray},
		{Name: "checkout_ts", Type: relstore.TypeInt},
		{Name: "commit_ts", Type: relstore.TypeInt},
		{Name: "msg", Type: relstore.TypeString},
		{Name: "author", Type: relstore.TypeString},
		{Name: "attributes", Type: relstore.TypeIntArray},
		{Name: "num_records", Type: relstore.TypeInt},
	}, "vid"))
	for _, m := range metas {
		parents := make([]int64, len(m.Parents))
		for i, p := range m.Parents {
			parents[i] = int64(p)
		}
		attrs := make([]int64, len(m.Attributes))
		for i, a := range m.Attributes {
			attrs[i] = int64(a)
		}
		if err := tab.Insert(relstore.Row{
			relstore.Int(int64(m.ID)), relstore.IntArray(parents),
			relstore.Int(m.CheckoutAt.UnixNano()), relstore.Int(m.CommitAt.UnixNano()),
			relstore.Str(m.Message), relstore.Str(m.Author),
			relstore.IntArray(attrs), relstore.Int(m.NumRecords),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// chargedAsMetadataTable fails unless e's database names and charges what it
// would if each CVD's metadata were the eight-column table: its tables, each
// unpartitioned CVD's versioning table at 32 + 8·|v| bytes a version, and the
// reference metadata table built from the CVD's AllMeta.
func chargedAsMetadataTable(t *testing.T, what string, e *Engine) {
	t.Helper()
	db := e.Database()
	var want int64
	var names []string
	for _, name := range db.TableNames() {
		if tab, ok := db.Table(name); ok {
			want += tab.StorageBytes()
			names = append(names, name)
		}
	}
	for _, name := range e.List() {
		c, err := e.CVD(name)
		if err != nil {
			t.Fatal(err)
		}
		metas := c.AllMeta()
		ref := metadataTable(t, name, metas)
		for _, m := range metas {
			want += 32 + 8*m.NumRecords
		}
		want += ref.StorageBytes()
		names = append(names, name+"_versions", ref.Name)
		if _, isTable := db.Table(ref.Name); isTable || !db.HasTable(ref.Name) {
			t.Fatalf("%s: %s is not a relation of the database", what, ref.Name)
		}
	}
	slices.Sort(names)
	if got := db.TableNames(); !slices.Equal(got, names) {
		t.Fatalf("%s: the database names %v, want %v", what, got, names)
	}
	if got := db.StorageBytes(); got != want {
		t.Fatalf("%s: the database charges %d B, want %d with each metadata table as the eight-column table", what, got, want)
	}
}

// TestMetadataChargedAsTable: the metadata table is a relation charged what
// the eight-column table was, through a merge, an empty message and author, a
// commit whose schema grows, a checkpoint and a reopen with a WAL tail, and a
// drop followed by a fresh init of the same name; and an init whose metadata
// table's name is taken fails and leaves the table that holds it.
func TestMetadataChargedAsTable(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable("meta", dir)
	if err != nil {
		t.Fatal(err)
	}
	schema := relstore.MustSchema([]relstore.Column{
		{Name: "k", Type: relstore.TypeInt},
		{Name: "name", Type: relstore.TypeString},
		{Name: "w", Type: relstore.TypeFloat},
	}, "k")
	rowsOf := func(s relstore.Schema, lo, hi int) []relstore.Row {
		var rows []relstore.Row
		for k := lo; k < hi; k++ {
			r := relstore.Row{relstore.Int(int64(k)), relstore.Str("name"), relstore.Float(float64(k) / 2)}
			for range s.Columns[len(r):] {
				r = append(r, relstore.Int(int64(k)))
			}
			rows = append(rows, r)
		}
		return rows
	}
	c, err := e.Init("p", schema, rowsOf(schema, 0, 10), cvd.Options{}) // no message, no author
	if err != nil {
		t.Fatal(err)
	}
	chargedAsMetadataTable(t, "init", e)
	commit := func(what string, parents []vgraph.VersionID, rows []relstore.Row, s relstore.Schema) {
		t.Helper()
		if _, err := c.Commit(parents, rows, s, what, "tester"); err != nil {
			t.Fatal(err)
		}
		chargedAsMetadataTable(t, what, e)
	}
	commit("branch a", []vgraph.VersionID{1}, rowsOf(schema, 0, 12), schema)
	commit("branch b", []vgraph.VersionID{1}, rowsOf(schema, 5, 14), schema)
	commit("merge", []vgraph.VersionID{2, 3}, rowsOf(schema, 0, 14), schema)
	evolved := schema.Clone()
	evolved.Columns = append(evolved.Columns, relstore.Column{Name: "extra", Type: relstore.TypeInt})
	commit("evolve", []vgraph.VersionID{4}, rowsOf(evolved, 0, 15), evolved)
	if m, _ := c.Meta(5); len(m.Attributes) != len(evolved.Columns) {
		t.Fatalf("the evolving commit lists %d attributes, want %d", len(m.Attributes), len(evolved.Columns))
	}

	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commit("tail", []vgraph.VersionID{5}, rowsOf(evolved, 1, 16), evolved)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e, err = OpenDurable("meta", dir); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	chargedAsMetadataTable(t, "reopen", e)
	if c, err = e.CVD("p"); err != nil || len(c.AllMeta()) != 6 {
		t.Fatalf("reopened CVD: %v", err)
	}

	if err := e.Drop("p"); err != nil {
		t.Fatal(err)
	}
	if e.Database().HasTable("p_metadata") {
		t.Fatal("the dropped CVD's metadata table is still in the database")
	}
	chargedAsMetadataTable(t, "drop", e)
	if _, err := e.Init("p", schema, rowsOf(schema, 0, 3), cvd.Options{Message: "again", Author: "tester"}); err != nil {
		t.Fatal(err)
	}
	chargedAsMetadataTable(t, "re-init", e)

	taken, err := e.Database().CreateTable("q_metadata", schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Init("q", schema, rowsOf(schema, 0, 3), cvd.Options{}); err == nil {
		t.Fatal("an init whose metadata table's name is taken succeeded")
	}
	if got, ok := e.Database().Table("q_metadata"); !ok || got != taken {
		t.Fatal("a failed init replaced the table holding its metadata table's name")
	}
	chargedAsMetadataTable(t, "refused init", e)
}

// TestCheckpointStoresOneTablePerCVD is a count-only storage gate: a
// checkpoint of a durable engine lists exactly one table per CVD, its data
// table, whether the CVD is partitioned or not, and no CVD head in the pack
// names a table.
func TestCheckpointStoresOneTablePerCVD(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable("gate", dir)
	if err != nil {
		t.Fatal(err)
	}
	schema := relstore.MustSchema([]relstore.Column{
		{Name: "k", Type: relstore.TypeInt},
		{Name: "v", Type: relstore.TypeInt},
	}, "k")
	rows := func(lo, hi int) []relstore.Row {
		var out []relstore.Row
		for k := lo; k < hi; k++ {
			out = append(out, relstore.Row{relstore.Int(int64(k)), relstore.Int(int64(k * k))})
		}
		return out
	}
	names := []string{"plain", "split"}
	for _, name := range names {
		c, err := e.Init(name, schema, rows(0, 50), cvd.Options{Message: "init", Author: "gate"})
		if err != nil {
			t.Fatal(err)
		}
		for v := vgraph.VersionID(1); v <= 6; v++ {
			if _, err := c.Commit([]vgraph.VersionID{v}, rows(int(v)*10, 50+int(v)*20), schema, "step", "gate"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := e.Optimize("split", 2); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	store, res, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	snap := res.Snapshot
	if len(snap.CVDs) != len(names) || len(snap.Tables) != len(names) {
		t.Fatalf("the checkpoint holds %d CVDs over %d tables, want %d over one table each", len(snap.CVDs), len(snap.Tables), len(names))
	}
	for i, st := range snap.CVDs {
		if got := snap.Tables[i].Name; got != st.DataTable() {
			t.Errorf("CVD %s's table is %s, want its data table %s", st.Name, got, st.DataTable())
		}
	}
	pack, err := os.ReadFile(filepath.Join(dir, durable.PackFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		for _, tab := range []string{name + "_data", name + "_versions", name + "_metadata"} {
			if n := bytes.Count(pack, []byte(tab)); n != 0 {
				t.Errorf("the pack names table %s %d times", tab, n)
			}
		}
	}
}
