package core

import (
	"fmt"
	"testing"

	"repro/internal/cvd"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// TestCatalogRunCoversEveryRow: a record catalog appends records in rid order
// from 1, so its rid column's run — the fact a checkout's join and a select
// trust instead of reading rids — covers every row after every operation that
// writes or rebuilds it: Init, a commit, a commit that evolves the schema, a
// merge, Optimize, online maintenance, a checkpoint and reopen (with a WAL tail
// to replay) and a point-in-time restore. A run that fell short would not fail
// a checkout; it would quietly make every checkout of the CVD a scan.
func TestCatalogRunCoversEveryRow(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable("run", dir, WithCheckpointRetention(4))
	if err != nil {
		t.Fatal(err)
	}
	covers := func(what string, e *Engine) {
		t.Helper()
		for _, name := range e.List() {
			data, ok := e.Database().Table(name + "_data")
			if !ok {
				t.Fatalf("%s: no catalog for %s", what, name)
			}
			if run := data.RIDRun("rid"); run != data.Len() {
				t.Fatalf("%s: %s's catalog knows %d of its %d rows to hold their rids", what, name, run, data.Len())
			}
		}
	}
	schema := kvSchema(t)
	var rows []relstore.Row
	for i := int64(1); i <= 40; i++ {
		rows = append(rows, relstore.Row{relstore.Int(i), relstore.Str(fmt.Sprintf("p%d", i))})
	}
	if _, err := e.Init("d", schema, rows, cvd.Options{Message: "v1"}); err != nil {
		t.Fatal(err)
	}
	covers("Init", e)
	c, _ := e.CVD("d")
	commit := func(what string, parents []vgraph.VersionID, rows []relstore.Row, schema relstore.Schema) vgraph.VersionID {
		t.Helper()
		v, err := c.Commit(parents, rows, schema, what, "run")
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		covers(what, e)
		return v
	}
	v2 := commit("commit", []vgraph.VersionID{1}, append(rows[5:], relstore.Row{relstore.Int(41), relstore.Str("new")}), schema)
	changed := append([]relstore.Row(nil), rows[:30]...)
	changed[6] = relstore.Row{relstore.Int(7), relstore.Str("changed")}
	v3 := commit("commit", []vgraph.VersionID{1}, changed, schema)

	wide := relstore.MustSchema(append(schema.Columns, relstore.Column{Name: "score", Type: relstore.TypeFloat}), "id")
	var evolved []relstore.Row
	for _, r := range rows[10:] {
		evolved = append(evolved, relstore.Row{r[0], r[1], relstore.Float(1.5)})
	}
	v4 := commit("an evolving commit", []vgraph.VersionID{v2}, evolved, wide)
	merged := append(evolved[:20:20], relstore.Row{relstore.Int(42), relstore.Str("merge"), relstore.Null()})
	commit("a merge", []vgraph.VersionID{v4, v3}, merged, wide)

	if _, err := e.Optimize("d", 1.5); err != nil {
		t.Fatal(err)
	}
	covers("Optimize", e)
	v6 := commit("a commit into a partitioning", []vgraph.VersionID{v4}, evolved[3:], wide)
	if err := c.WithExclusive(func() error {
		m, err := c.Rlist()
		if err != nil {
			return err
		}
		_, err = m.OnlineAssign(v6, 0, true)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	covers("online maintenance", e)

	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	epochs, err := e.RetainedEpochs()
	if err != nil || len(epochs) == 0 {
		t.Fatalf("retained epochs %v, %v", epochs, err)
	}
	commit("a commit after the checkpoint", []vgraph.VersionID{v6}, evolved[:9], wide)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable("run", dir)
	if err != nil {
		t.Fatal(err)
	}
	covers("a reopen", re)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	at, err := OpenAtEpoch("run", dir, epochs[len(epochs)-1])
	if err != nil {
		t.Fatal(err)
	}
	covers("OpenAtEpoch", at)
	if err := at.Close(); err != nil {
		t.Fatal(err)
	}
}
