package cvd

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/relstore"
	"repro/internal/vgraph"
)

func strSchema(pk ...string) relstore.Schema {
	return relstore.MustSchema([]relstore.Column{
		{Name: "p", Type: relstore.TypeString},
		{Name: "q", Type: relstore.TypeString},
	}, pk...)
}

// replayed rebuilds a CVD from the first version's rows and a captured
// journal, the way recovery does, and requires every version to hold the same
// records, cell for cell, as the live one.
func replayed(t *testing.T, live *CVD, schema relstore.Schema, first []relstore.Row, j *flakyJournal) {
	t.Helper()
	fresh, err := Init(relstore.NewDatabase("replayed"), live.Name(), schema, first, Options{Clock: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	for _, jc := range j.log {
		if err := fresh.ReplayCommit(jc.versions, jc.delta, jc.schema, jc.msg, jc.author, jc.at); err != nil {
			t.Fatalf("replaying version %d: %v", jc.versions[0], err)
		}
	}
	for _, v := range live.Versions() {
		rids := live.RecordsOf(v)
		if got := fresh.RecordsOf(v); !slices.Equal(got, rids) {
			t.Fatalf("replayed version %d holds records %v, live %v", v, got, rids)
		}
		for _, rid := range rids {
			want, _ := live.RecordContent(rid)
			got, _ := fresh.RecordContent(rid)
			if err := sameRows([]relstore.Row{got}, []relstore.Row{want}); err != nil {
				t.Fatalf("replayed record %d: %v", rid, err)
			}
		}
	}
}

// TestRecordIdentityIsTyped: the rendered content key made NULL and "" one
// content, and ("a\x1fb","c") and ("a","b\x1fc") another, so an edit from one
// to the other "matched" the parent record and was silently dropped. Identity
// is the typed cells now, live and through replay.
func TestRecordIdentityIsTyped(t *testing.T) {
	first := []relstore.Row{
		{relstore.Null(), relstore.Str("x")},
		{relstore.Str(""), relstore.Str("y")},
		{relstore.Str("a\x1fb"), relstore.Str("c")},
	}
	c, err := Init(relstore.NewDatabase("db"), "typed", strSchema(), first, Options{Clock: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	j := &flakyJournal{}
	c.SetJournal(j)

	work, err := c.Checkout([]vgraph.VersionID{1}, "work")
	if err != nil {
		t.Fatal(err)
	}
	p := work.Schema.ColumnIndex("p")
	work.Set(0, p, relstore.Str("")) // NULL → ""
	work.Set(1, p, relstore.Null())  // "" → NULL
	v2, err := c.CommitTable("work", "swap", "t")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RecordsOf(v2); !slices.Equal(got, []vgraph.RecordID{3, 4, 5}) {
		t.Fatalf("after swapping NULL and \"\" the version holds records %v, want the untouched 3 and two new ones", got)
	}
	for rid, want := range map[vgraph.RecordID]relstore.Value{4: relstore.Str(""), 5: relstore.Null()} {
		if row, _ := c.RecordContent(rid); !row[0].Identical(want) {
			t.Fatalf("record %d has p = %v (%v), want %v (%v)", rid, row[0], row[0].Type, want, want.Type)
		}
	}

	// The forged separator, through Commit.
	forged := []relstore.Row{{relstore.Str("a"), relstore.Str("b\x1fc")}}
	v3, err := c.Commit([]vgraph.VersionID{1}, forged, strSchema(), "forged", "t")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RecordsOf(v3); !slices.Equal(got, []vgraph.RecordID{6}) {
		t.Fatalf("(\"a\", \"b\\x1fc\") was taken for record %v; it is not (\"a\\x1fb\", \"c\")", got)
	}
	replayed(t, c, strSchema(), first, j)
}

// TestPrimaryKeyIdentityIsTyped: the same two collisions in the primary-key
// check (two distinct keys refused as duplicates) and in the merge checkout's
// precedence (a row dropped as if its key had been seen).
func TestPrimaryKeyIdentityIsTyped(t *testing.T) {
	schema := strSchema("p", "q")
	first := []relstore.Row{
		{relstore.Str("a\x1f"), relstore.Str("b")},
		{relstore.Null(), relstore.Str("x")},
	}
	c, err := Init(relstore.NewDatabase("db"), "keys", schema, first, Options{Clock: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	j := &flakyJournal{}
	c.SetJournal(j)
	distinct := append(append([]relstore.Row(nil), first...),
		relstore.Row{relstore.Str("a"), relstore.Str("\x1fb")},
		relstore.Row{relstore.Str(""), relstore.Str("x")})
	v2, err := c.Commit([]vgraph.VersionID{1}, distinct, schema, "four keys", "t")
	if err != nil {
		t.Fatalf("four distinct keys refused: %v", err)
	}
	if got := c.RecordsOf(v2); len(got) != 4 {
		t.Fatalf("version %d holds %v, want four records", v2, got)
	}
	// The same through a staging table: add the colliding-looking rows.
	work, err := c.Checkout([]vgraph.VersionID{1}, "work")
	if err != nil {
		t.Fatal(err)
	}
	work.AppendRow(relstore.Row{relstore.Null(), relstore.Str("a"), relstore.Str("\x1fb")})
	work.AppendRow(relstore.Row{relstore.Null(), relstore.Str(""), relstore.Str("x")})
	v3, err := c.CommitTable("work", "four keys, staged", "t")
	if err != nil {
		t.Fatalf("four distinct keys refused from a staging table: %v", err)
	}
	if got := c.RecordsOf(v3); !slices.Equal(got, []vgraph.RecordID{1, 2, 5, 6}) {
		t.Fatalf("staged commit holds %v, want the parent's two records and two new ones", got)
	}
	// A real duplicate is still refused, whichever way it is staged.
	dup := append(append([]relstore.Row(nil), first...), relstore.Row{relstore.Null(), relstore.Str("x")})
	if _, err := c.Commit([]vgraph.VersionID{1}, dup, schema, "dup", "t"); err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
		t.Fatalf("a repeated key was accepted: %v", err)
	}

	// Merge precedence: versions 4 and 5 each hold one of a colliding-looking
	// pair; the merged checkout has both rows.
	v4, err := c.Commit([]vgraph.VersionID{1}, first[:1], schema, "left", "t")
	if err != nil {
		t.Fatal(err)
	}
	v5, err := c.Commit([]vgraph.VersionID{1}, distinct[2:3], schema, "right", "t")
	if err != nil {
		t.Fatal(err)
	}
	merged, err := c.Checkout([]vgraph.VersionID{v4, v5}, "merged")
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 2 {
		t.Fatalf("merged checkout has %d rows, want both keys", merged.Len())
	}
	replayed(t, c, schema, first, j)
}

// TestNaNRecordMatchesItself: floats are compared by their bits, so a record
// holding a NaN is recognized on the next commit instead of being minted anew
// every time.
func TestNaNRecordMatchesItself(t *testing.T) {
	schema := relstore.MustSchema([]relstore.Column{{Name: "k", Type: relstore.TypeInt}, {Name: "f", Type: relstore.TypeFloat}}, "k")
	rows := []relstore.Row{{relstore.Int(1), relstore.Float(math.NaN())}, {relstore.Int(2), relstore.Float(0)}}
	c, err := Init(relstore.NewDatabase("db"), "nan", schema, rows, Options{Clock: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	j := &flakyJournal{}
	c.SetJournal(j)
	v2, err := c.Commit([]vgraph.VersionID{1}, rows, schema, "again", "t")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RecordsOf(v2); !slices.Equal(got, []vgraph.RecordID{1, 2}) {
		t.Fatalf("recommitting the rows gave records %v, want the parent's 1 and 2", got)
	}
	// -0 is not 0: the edit is kept.
	work, err := c.Checkout([]vgraph.VersionID{v2}, "work")
	if err != nil {
		t.Fatal(err)
	}
	work.Set(1, 2, relstore.Float(math.Copysign(0, -1)))
	v3, err := c.CommitTable("work", "minus zero", "t")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RecordsOf(v3); !slices.Equal(got, []vgraph.RecordID{1, 3}) {
		t.Fatalf("0 → -0 gave records %v, want 1 and a new one", got)
	}
	replayed(t, c, schema, rows, j)
}

// TestCommitTableKeepsEqualContentRecords pins what committing a checkout
// nobody wrote to means: exactly the parent's record set. Without a primary
// key a version can hold two records of equal content; matched by content —
// as Commit's rows still are — the pair collapsed into one on the next commit.
func TestCommitTableKeepsEqualContentRecords(t *testing.T) {
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			schema := strSchema()
			x := relstore.Row{relstore.Str("x"), relstore.Str("1")}
			n := relstore.Row{relstore.Str("n"), relstore.Str("2")}
			c, err := Init(relstore.NewDatabase("db"), "pairs", schema, []relstore.Row{x}, Options{Model: model, Clock: fixedClock()})
			if err != nil {
				t.Fatal(err)
			}
			v2, err := c.Commit([]vgraph.VersionID{1}, []relstore.Row{x, n, n.Clone()}, schema, "pair", "t")
			if err != nil {
				t.Fatal(err)
			}
			pair := []vgraph.RecordID{1, 2, 3}
			if got := c.RecordsOf(v2); !slices.Equal(got, pair) {
				t.Fatalf("version 2 holds %v, want %v", got, pair)
			}
			if _, err := c.Checkout([]vgraph.VersionID{v2}, "work"); err != nil {
				t.Fatal(err)
			}
			v3, err := c.CommitTable("work", "unedited", "t")
			if err != nil {
				t.Fatal(err)
			}
			if got := c.RecordsOf(v3); !slices.Equal(got, pair) {
				t.Fatalf("committing an unedited checkout gave %v, want the parent's %v", got, pair)
			}
			// An edit elsewhere leaves the pair alone.
			work, err := c.Checkout([]vgraph.VersionID{v3}, "work")
			if err != nil {
				t.Fatal(err)
			}
			for pos := 0; pos < work.Len(); pos++ {
				if work.IntAt(pos, 0) == 1 {
					work.Set(pos, 2, relstore.Str("edited"))
				}
			}
			v4, err := c.CommitTable("work", "edited", "t")
			if err != nil {
				t.Fatal(err)
			}
			if got := c.RecordsOf(v4); !slices.Equal(got, []vgraph.RecordID{2, 3, 4}) {
				t.Fatalf("editing the other row gave %v, want the pair and a new record", got)
			}
			// Commit matches by content, as it always did: one record per content.
			v5, err := c.Commit([]vgraph.VersionID{v2}, []relstore.Row{x, n, n.Clone()}, schema, "rows", "t")
			if err != nil {
				t.Fatal(err)
			}
			if got := c.RecordsOf(v5); !slices.Equal(got, []vgraph.RecordID{1, 2}) {
				t.Fatalf("Commit of the same rows gave %v, want one record per content", got)
			}
		})
	}
}

// TestUnwrittenCheckoutIsClean: a staging table nobody wrote to carries no
// dirty set, whatever way its model filled it, and asking does not disturb the
// column sharing of a zero-copy checkout.
func TestUnwrittenCheckoutIsClean(t *testing.T) {
	for _, model := range allModels {
		_, c := buildProteinCVD(t, model)
		for _, versions := range [][]vgraph.VersionID{{1}, {4}, {2, 3}} {
			tab, err := c.Checkout(versions, "clean")
			if err != nil {
				t.Fatal(err)
			}
			shared := tab.SharedColumns()
			if dirty := tab.DirtyRows(); dirty != nil {
				t.Fatalf("%s: checkout of %v has dirty rows %v before any write", model, versions, dirty)
			}
			if tab.SharedColumns() != shared {
				t.Fatalf("%s: reading the dirty set changed column sharing", model)
			}
			c.DiscardCheckout("clean")
		}
	}
	// The full-cover case shares every column and still does after the commit
	// path has looked at it.
	c, err := Init(relstore.NewDatabase("db"), "zc", strSchema(), []relstore.Row{{relstore.Str("a"), relstore.Str("b")}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := c.Checkout([]vgraph.VersionID{1}, "zc")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tab.SharedColumns(), len(tab.Schema.Columns); got != want || tab.DirtyRows() != nil {
		t.Fatalf("full-cover checkout shares %d of %d columns, dirty rows %v", got, want, tab.DirtyRows())
	}
}

// TestCommitTableEnforcesPrimaryKey: CommitTable used to project the key away
// with the rid column and so never checked it. A written row must not take the
// key of a row that was not.
func TestCommitTableEnforcesPrimaryKey(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	work, err := c.Checkout([]vgraph.VersionID{1}, "work")
	if err != nil {
		t.Fatal(err)
	}
	p2 := work.Schema.ColumnIndex("protein2")
	work.Set(0, p2, work.At(1, p2)) // rows 0 and 1 already share protein1
	if _, err := c.CommitTable("work", "", ""); err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
		t.Fatalf("a staged row took another row's key: %v", err)
	}
	if c.NumVersions() != 4 {
		t.Fatal("the refused commit left a version behind")
	}
	// The claim is back: the table can be repaired and committed.
	work.Set(0, p2, relstore.Str("ENSP000000"))
	if _, err := c.CommitTable("work", "", ""); err != nil {
		t.Fatalf("commit after repairing the key: %v", err)
	}
	// Two added rows sharing a key.
	work, err = c.Checkout([]vgraph.VersionID{1}, "work")
	if err != nil {
		t.Fatal(err)
	}
	work.AppendRow(append(relstore.Row{relstore.Int(0)}, prow("N", "M", 1, 1, 1)...))
	work.AppendRow(append(relstore.Row{relstore.Int(0)}, prow("N", "M", 2, 2, 2)...))
	if _, err := c.CommitTable("work", "", ""); err == nil {
		t.Fatal("two added rows with one key were accepted")
	}
}

// TestCommitTableResolvesAReplacedTable: only the table Checkout handed out is
// trusted to say which rows were written; anything else registered under the
// staging name has every row matched by content.
func TestCommitTableResolvesAReplacedTable(t *testing.T) {
	db, c := buildProteinCVD(t, SplitByRlist)
	work, err := c.Checkout([]vgraph.VersionID{1}, "work")
	if err != nil {
		t.Fatal(err)
	}
	other := work.Clone("work")
	other.Set(0, other.Schema.ColumnIndex("neighborhood"), relstore.Int(4242))
	other.MarkClean()
	db.AttachTable(other)
	v, err := c.CommitTable("work", "", "")
	if err != nil {
		t.Fatal(err)
	}
	got := c.RecordsOf(v)
	if len(got) != 3 || got[2] < 8 {
		t.Fatalf("the edit in the replaced table was lost: version holds %v", got)
	}
}

// TestRecordIdentitySurvivesGeneralization: generalizing a column changes the
// form a record is stored in, not which record it is. Rendered, an integer of
// 1e6 or more stopped matching itself as a decimal ("2000000" vs "2e+06") and
// every such row was minted anew.
func TestRecordIdentitySurvivesGeneralization(t *testing.T) {
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			schema := relstore.MustSchema([]relstore.Column{{Name: "k", Type: relstore.TypeInt}, {Name: "a", Type: relstore.TypeInt}}, "k")
			rows := []relstore.Row{{relstore.Int(1), relstore.Int(2_000_000)}, {relstore.Int(2), relstore.Int(7)}, {relstore.Int(3), relstore.Null()}}
			c, err := Init(relstore.NewDatabase("db"), "gen", schema, rows, Options{Model: model, Clock: fixedClock()})
			if err != nil {
				t.Fatal(err)
			}
			work, err := c.Checkout([]vgraph.VersionID{1}, "work")
			if err != nil {
				t.Fatal(err)
			}
			if err := work.AlterColumnType("a", relstore.TypeFloat); err != nil {
				t.Fatal(err)
			}
			v2, err := c.CommitTable("work", "a is a decimal now", "t")
			if err != nil {
				t.Fatal(err)
			}
			if c.Schema().Columns[1].Type != relstore.TypeFloat {
				t.Fatalf("schema is (%s)", c.Schema())
			}
			if got := c.RecordsOf(v2); !slices.Equal(got, []vgraph.RecordID{1, 2, 3}) {
				t.Fatalf("generalizing a column minted records: version holds %v", got)
			}
			// Rows that arrive as decimals are the same records too, and one
			// that really differs is not.
			asFloat := []relstore.Row{{relstore.Int(1), relstore.Float(2_000_000)}, {relstore.Int(2), relstore.Float(7.5)}}
			v3, err := c.Commit([]vgraph.VersionID{v2}, asFloat, c.Schema(), "decimals", "t")
			if err != nil {
				t.Fatal(err)
			}
			if got := c.RecordsOf(v3); !slices.Equal(got, []vgraph.RecordID{1, 4}) {
				t.Fatalf("decimal rows gave records %v, want 1 and a new one", got)
			}
		})
	}
}

// TestEvolutionRewritesNoEarlierVersion: a commit that generalizes a column
// casts exactly the stored cells narrower than the new type, so every version
// committed before it checks out as it did. An empty integer array in an
// integer column, and a string, are not narrower than a decimal: ALTER COLUMN
// TYPE's cast turned both into decimal 0, and version 1 with them.
func TestEvolutionRewritesNoEarlierVersion(t *testing.T) {
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) {
			schema := func(typ relstore.ValueType) relstore.Schema {
				return relstore.MustSchema([]relstore.Column{{Name: "k", Type: relstore.TypeInt}, {Name: "a", Type: typ}}, "k")
			}
			rows := []relstore.Row{
				{relstore.Int(1), relstore.IntArray([]int64{})},
				{relstore.Int(2), relstore.Str("x")},
				{relstore.Int(3), relstore.Int(5)},
				{relstore.Int(4), relstore.Null()},
			}
			c, err := Init(relstore.NewDatabase("db"), "evolve", schema(relstore.TypeInt), rows, Options{Model: model, Clock: fixedClock()})
			if err != nil {
				t.Fatal(err)
			}
			checkout := func(v vgraph.VersionID) []relstore.Row {
				t.Helper()
				tab, err := c.Checkout([]vgraph.VersionID{v}, "look")
				if err != nil {
					t.Fatal(err)
				}
				defer c.DiscardCheckout("look")
				out := tab.Rows()
				slices.SortFunc(out, func(a, b relstore.Row) int { return a[0].Compare(b[0]) })
				return out
			}
			before := checkout(1)
			v2, err := c.Commit([]vgraph.VersionID{1}, rows, schema(relstore.TypeFloat), "a is a decimal now", "t")
			if err != nil {
				t.Fatal(err)
			}
			// Checkouts lead with the rid; a is their third cell. The one cell
			// narrower than a decimal is now stored as one, as canonical has it.
			want := slices.Clone(before)
			want[2] = slices.Clone(want[2])
			want[2][2] = relstore.Float(5)
			for _, v := range []vgraph.VersionID{1, v2} {
				want := want
				if v == 1 && model == TablePerVersion {
					want = before // its versions are tables of their own, never altered
				}
				if got := checkout(v); !slices.EqualFunc(got, want, relstore.Row.Identical) {
					t.Errorf("version %d checks out %v after the evolution, want %v", v, got, want)
				}
			}
			if got := c.RecordsOf(v2); len(got) != len(rows) || got[len(got)-1] != vgraph.RecordID(len(rows)) {
				t.Errorf("the evolving commit resolved to records %v, want the version's own", got)
			}
		})
	}
}

// TestMatchPrefersFirstParentThenLowestRID pins the tie-break between records
// of equal content: the first parent in commit order that holds one decides,
// and within it the lowest rid.
func TestMatchPrefersFirstParentThenLowestRID(t *testing.T) {
	schema := strSchema()
	x := relstore.Row{relstore.Str("x"), relstore.Str("1")}
	y := relstore.Row{relstore.Str("y"), relstore.Str("1")}
	c, err := Init(relstore.NewDatabase("db"), "ties", schema, []relstore.Row{x}, Options{Clock: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	v2, _ := c.Commit([]vgraph.VersionID{1}, []relstore.Row{y}, schema, "", "")        // record 2
	v3, err := c.Commit([]vgraph.VersionID{v2}, []relstore.Row{x}, schema, "back", "") // record 3: x again, 1 is not in v2
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		parents []vgraph.VersionID
		want    vgraph.RecordID
	}{{[]vgraph.VersionID{v3, 1}, 3}, {[]vgraph.VersionID{1, v3}, 1}, {[]vgraph.VersionID{v2, v3, 1}, 3}} {
		v, err := c.Commit(tc.parents, []relstore.Row{x}, schema, "", "")
		if err != nil {
			t.Fatal(err)
		}
		if got := c.RecordsOf(v); !slices.Equal(got, []vgraph.RecordID{tc.want}) {
			t.Fatalf("parents %v: x resolved to %v, want record %d", tc.parents, got, tc.want)
		}
	}
}

// allocCVD is a CVD of n records and six integer columns, keyed.
func allocCVD(t *testing.T, n int) (*CVD, relstore.Schema, []relstore.Row) {
	cols := []relstore.Column{{Name: "k", Type: relstore.TypeInt}}
	for i := 1; i < 6; i++ {
		cols = append(cols, relstore.Column{Name: fmt.Sprintf("a%d", i), Type: relstore.TypeInt})
	}
	schema := relstore.MustSchema(cols, "k")
	rows := make([]relstore.Row, n)
	for i := range rows {
		rows[i] = relstore.Row{relstore.Int(int64(i)), relstore.Int(int64(i * 3)), relstore.Int(1), relstore.Int(2), relstore.Int(3), relstore.Int(4)}
	}
	c, err := Init(relstore.NewDatabase("db"), "alloc", schema, rows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c, schema, rows
}

const allocDelta = 130 // rows one commit changes: 30 updated, 100 added

// commitCost runs commit cycles on a CVD of n records and returns the
// allocations of a whole cycle (count, averaged) and the bytes the commit call
// itself allocates (median over the cycles, so that the rare doubling of a
// table lane or of the catalog map does not count as the commit's). cycle runs
// one checkout-edit or row-preparation step and returns the commit to time.
func commitCost(t *testing.T, cycle func() func()) (allocs float64, commitBytes uint64) {
	t.Helper()
	for i := 0; i < 2; i++ { // settle lazily built state (the record index)
		cycle()()
	}
	var bytes []uint64
	var ms runtime.MemStats
	allocs = testing.AllocsPerRun(9, func() {
		commit := cycle()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		commit()
		runtime.ReadMemStats(&ms)
		bytes = append(bytes, ms.TotalAlloc-before)
	})
	sort.Slice(bytes, func(i, j int) bool { return bytes[i] < bytes[j] })
	return allocs, bytes[len(bytes)/2]
}

// TestCommitAllocationsFollowTheDelta is the allocation gate (no wall-clock):
// what a commit allocates depends on the rows it changes, except for the 10
// bytes per record of the version that are the version — its record id list
// (8 bytes a record) and its compressed record set, which is the rlist too.
func TestCommitAllocationsFollowTheDelta(t *testing.T) {
	type cost struct {
		allocs float64
		bytes  uint64
	}
	sizes := []int{2_000, 20_000}
	measure := func(cycleFor func(c *CVD, schema relstore.Schema, rows []relstore.Row) func() func()) map[int]cost {
		out := make(map[int]cost)
		for _, n := range sizes {
			c, schema, rows := allocCVD(t, n)
			allocs, bytes := commitCost(t, cycleFor(c, schema, rows))
			out[n] = cost{allocs, bytes}
		}
		return out
	}
	check := func(path string, got map[int]cost) {
		small, big := got[sizes[0]], got[sizes[1]]
		t.Logf("%s: %.0f allocations at %d records, %.0f at %d; the commit allocates %d and %d bytes", path, small.allocs, sizes[0], big.allocs, sizes[1], small.bytes, big.bytes)
		if big.allocs > 1.25*small.allocs {
			t.Errorf("%s: %.0f allocations at %d records but %.0f at %d: the count follows the version, not the delta", path, small.allocs, sizes[0], big.allocs, sizes[1])
		}
		// The slack is what 130 changed rows cost at the small size, where
		// 10 B per record is 20 KB of it.
		slack := small.bytes
		for n, c := range got {
			if limit := uint64(10*(n+allocDelta*12)) + slack; c.bytes > limit {
				t.Errorf("%s: the commit allocates %d bytes at %d records, over 10 B per record plus %d", path, c.bytes, n, slack)
			}
		}
	}

	key := int64(1 << 40)
	check("CommitTable", measure(func(c *CVD, _ relstore.Schema, _ []relstore.Row) func() func() {
		return func() func() {
			latest := c.Versions()[c.NumVersions()-1]
			work, err := c.Checkout([]vgraph.VersionID{latest}, "work")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30; i++ {
				key++
				work.Set(i*7, 2, relstore.Int(key))
			}
			for i := 0; i < allocDelta-30; i++ {
				key++
				if err := work.Insert(relstore.Row{relstore.Int(int64(-1 - i)), relstore.Int(key), relstore.Int(key), relstore.Int(1), relstore.Int(2), relstore.Int(3), relstore.Int(4)}); err != nil {
					t.Fatal(err)
				}
			}
			return func() {
				if _, err := c.CommitTable("work", "m", "a"); err != nil {
					t.Fatal(err)
				}
			}
		}
	}))
	check("Commit", measure(func(c *CVD, schema relstore.Schema, rows []relstore.Row) func() func() {
		return func() func() {
			latest := c.Versions()[c.NumVersions()-1]
			for i := 0; i < 30; i++ {
				key++
				rows[i*7] = rows[i*7].Clone()
				rows[i*7][1] = relstore.Int(key)
			}
			for i := 0; i < allocDelta-30; i++ {
				key++
				rows = append(rows, relstore.Row{relstore.Int(key), relstore.Int(key), relstore.Int(1), relstore.Int(2), relstore.Int(3), relstore.Int(4)})
			}
			return func() {
				if _, err := c.Commit([]vgraph.VersionID{latest}, rows, schema, "m", "a"); err != nil {
					t.Fatal(err)
				}
			}
		}
	}))
}

// TestSortRIDs holds the commit's rid sort to a comparison sort and compaction,
// and its repeat to the lowest repeated rid, on dense and sparse draws.
func TestSortRIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		n, span := rng.Intn(200), 1+rng.Intn(1<<uint(1+rng.Intn(20)))
		rids := make([]vgraph.RecordID, n)
		for i := range rids {
			rids[i] = vgraph.RecordID(1 + rng.Intn(span))
		}
		want := slices.Clone(rids)
		slices.Sort(want)
		var wantTwice vgraph.RecordID
		for i := 1; i < len(want) && wantTwice == 0; i++ {
			if want[i] == want[i-1] {
				wantTwice = want[i]
			}
		}
		want = slices.Compact(want)
		got, twice := sortRIDs(rids)
		if !slices.Equal(got, want) || twice != wantTwice {
			t.Fatalf("sortRIDs over %d rids in 1..%d: %v repeating %d, want %v repeating %d", n, span, got, twice, want, wantTwice)
		}
	}
}
