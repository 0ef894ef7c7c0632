package cvd

import (
	"strings"
	"testing"

	"repro/internal/recset"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// Split-by-rlist's versioning table holds one compressed record set per
// version, and that set is the bipartite graph's record set of the version:
// the tests here pin the sharing and the check a restore makes of a versioning
// table read back from disk.

// sameRlists fails unless every version of c has an rlist and it is the very
// set the bipartite graph holds for the version.
func sameRlists(t *testing.T, what string, c *CVD) {
	t.Helper()
	m, err := c.Rlist()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.sets) != c.NumVersions() {
		t.Fatalf("%s: the versioning table holds %d versions, the CVD %d", what, len(c.sets), c.NumVersions())
	}
	for _, v := range c.Versions() {
		if s := m.RecordSet(v); s == nil || s != c.Bipartite().RecordSet(v) {
			t.Fatalf("%s: version %d's rlist is not the bipartite graph's record set", what, v)
		}
	}
}

// TestRlistIsRecordSet: a commit builds its version's set once and both the
// bipartite graph and the versioning table keep that pointer — live, after
// the commits are replayed from their journalled deltas, in a checkpoint
// capture, and after a restore from it.
func TestRlistIsRecordSet(t *testing.T) {
	db, c := buildProteinCVD(t, SplitByRlist)
	j := &flakyJournal{}
	c.SetJournal(j)
	if _, err := c.Commit([]vgraph.VersionID{4}, []relstore.Row{prow("ENSP1", "ENSP2", 1, 2, 3)}, proteinSchema(), "add", "t"); err != nil {
		t.Fatal(err)
	}
	work, err := c.Checkout([]vgraph.VersionID{2, 5}, "work")
	if err != nil {
		t.Fatal(err)
	}
	work.Set(0, 3, relstore.Int(99))
	if _, err := c.CommitTable("work", "edit", "t"); err != nil {
		t.Fatal(err)
	}
	sameRlists(t, "live", c)

	_, replayed := buildProteinCVD(t, SplitByRlist)
	for _, jc := range j.log {
		if err := replayed.ReplayCommit(jc.versions, jc.delta, jc.schema, jc.msg, jc.author, jc.at); err != nil {
			t.Fatal(err)
		}
	}
	sameRlists(t, "replayed", replayed)

	c.LockExclusive()
	st, err := c.ExportState()
	c.UnlockExclusive()
	if err != nil {
		t.Fatal(err)
	}
	m, _ := c.Rlist()
	for i, vs := range st.RecordSets {
		if vs.Version != vgraph.VersionID(i+1) || vs.Set != m.RecordSet(vs.Version) {
			t.Fatalf("capture: row %d is version %d, its set the model's: %v", i, vs.Version, vs.Set == m.RecordSet(vs.Version))
		}
	}
	other := relstore.NewDatabase("restored")
	for _, name := range st.Tables {
		other.AttachTable(db.MustTable(name))
	}
	restored, err := Restore(other, st)
	if err != nil {
		t.Fatal(err)
	}
	sameRlists(t, "restored", restored)
	if rm, _ := restored.Rlist(); rm.RecordSet(6) != st.RecordSets[5].Set {
		t.Fatal("restore copied the captured sets")
	}
}

// TestRestoreRefusesBadVersions: a versioning table that is not the history
// the head describes — a version missing, a set whose size disagrees with its
// version's node or metadata, a record id never handed out — is refused with
// the CVD and the version named.
func TestRestoreRefusesBadVersions(t *testing.T) {
	for name, tc := range map[string]struct {
		damage func(st *PersistentState)
		want   string
	}{
		"missing": {func(st *PersistentState) { st.RecordSets = st.RecordSets[:3] }, "holds 3 versions where version ids 1 to 4 were handed out"},
		"order": {func(st *PersistentState) {
			st.RecordSets[1], st.RecordSets[2] = st.RecordSets[2], st.RecordSets[1]
		}, "row 1 of the versioning table is version 3, want 2"},
		"graph": {func(st *PersistentState) { st.Graph.Node(2).NumRecords++ }, "version 2 lists 3 records in the versioning table, 4 in the version graph and 3 in its metadata"},
		"meta":  {func(st *PersistentState) { st.Metas[3].NumRecords-- }, "version 4 lists 6 records in the versioning table, 6 in the version graph and 5 in its metadata"},
		"rid": {func(st *PersistentState) {
			s := recset.FromSorted([]int64{3, 5, 6, int64(st.NextRID)})
			st.RecordSets[2].Set = s
		}, "version 3 lists record ids 3 to 8 where ids 1 to 7 were handed out"},
	} {
		t.Run(name, func(t *testing.T) {
			db, c := buildProteinCVD(t, SplitByRlist)
			c.LockExclusive()
			st, err := c.ExportState()
			c.UnlockExclusive()
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(st)
			if _, err := Restore(db, st); err == nil || !strings.Contains(err.Error(), "interaction") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore of a versioning table with a %s version: %v", name, err)
			}
		})
	}
}
