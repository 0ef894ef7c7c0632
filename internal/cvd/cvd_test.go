package cvd

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// proteinSchema is the protein-protein interaction schema of Figure 3.2 with
// a composite primary key <protein1, protein2>.
func proteinSchema() relstore.Schema {
	return relstore.MustSchema([]relstore.Column{
		{Name: "protein1", Type: relstore.TypeString},
		{Name: "protein2", Type: relstore.TypeString},
		{Name: "neighborhood", Type: relstore.TypeInt},
		{Name: "cooccurrence", Type: relstore.TypeInt},
		{Name: "coexpression", Type: relstore.TypeInt},
	}, "protein1", "protein2")
}

func prow(p1, p2 string, n, co, cx int64) relstore.Row {
	return relstore.Row{relstore.Str(p1), relstore.Str(p2), relstore.Int(n), relstore.Int(co), relstore.Int(cx)}
}

// fixedClock ticks a second a call. Checkouts stamp their staging table
// outside the lock commits read the clock under, so it locks for itself.
func fixedClock() func() time.Time {
	var mu sync.Mutex
	t := time.Date(2026, 6, 15, 0, 0, 0, 0, time.UTC)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Second)
		return t
	}
}

// buildProteinCVD reproduces the four versions of Figure 3.2 on the given
// data model and returns the CVD with versions 1..4.
func buildProteinCVD(t testing.TB, kind ModelKind) (*relstore.Database, *CVD) {
	t.Helper()
	db := relstore.NewDatabase("orpheus")
	// v1 = {r1, r2, r3}
	v1rows := []relstore.Row{
		prow("ENSP273047", "ENSP261890", 0, 53, 0),    // r1
		prow("ENSP273047", "ENSP235932", 0, 87, 0),    // r2
		prow("ENSP300413", "ENSP274242", 426, 0, 164), // r3
	}
	c, err := Init(db, "interaction", proteinSchema(), v1rows, Options{Model: kind, Author: "alice", Message: "initial import", Clock: fixedClock()})
	if err != nil {
		t.Fatalf("Init(%v): %v", kind, err)
	}
	// v2 = {r2, r3, r4} derived from v1
	v2rows := []relstore.Row{
		prow("ENSP273047", "ENSP235932", 0, 87, 0),    // r2
		prow("ENSP300413", "ENSP274242", 426, 0, 164), // r3
		prow("ENSP309334", "ENSP346022", 0, 227, 975), // r4
	}
	if _, err := c.Commit([]vgraph.VersionID{1}, v2rows, proteinSchema(), "add ENSP309334 pair", "bob"); err != nil {
		t.Fatalf("commit v2: %v", err)
	}
	// v3 = {r3, r5, r6, r7} derived from v1
	v3rows := []relstore.Row{
		prow("ENSP300413", "ENSP274242", 426, 0, 164), // r3
		prow("ENSP273047", "ENSP261890", 0, 53, 83),   // r5 (updated coexpression)
		prow("ENSP332973", "ENSP300134", 0, 0, 83),    // r6
		prow("ENSP472847", "ENSP365773", 225, 0, 73),  // r7
	}
	if _, err := c.Commit([]vgraph.VersionID{1}, v3rows, proteinSchema(), "clean coexpression", "carol"); err != nil {
		t.Fatalf("commit v3: %v", err)
	}
	// v4 = {r2, r3, r4, r5, r6, r7} merged from v2 and v3
	v4rows := append(append([]relstore.Row{}, v2rows...), v3rows[1:]...)
	if _, err := c.Commit([]vgraph.VersionID{2, 3}, v4rows, proteinSchema(), "merge", "alice"); err != nil {
		t.Fatalf("commit v4: %v", err)
	}
	return db, c
}

var allModels = []ModelKind{SplitByRlist, SplitByVlist, CombinedTable, TablePerVersion, DeltaBased}

func sortedRIDs(rs []vgraph.RecordID) []int64 {
	out := make([]int64, len(rs))
	for i, r := range rs {
		out[i] = int64(r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestFigure32AcrossAllModels(t *testing.T) {
	for _, kind := range allModels {
		t.Run(kind.String(), func(t *testing.T) {
			_, c := buildProteinCVD(t, kind)
			if c.NumVersions() != 4 {
				t.Fatalf("|V| = %d, want 4", c.NumVersions())
			}
			if c.NumRecords() != 7 {
				t.Fatalf("|R| = %d, want 7 distinct records", c.NumRecords())
			}
			// Version membership mirrors Figure 3.2(c.ii).
			wantSizes := map[vgraph.VersionID]int{1: 3, 2: 3, 3: 4, 4: 6}
			for v, n := range wantSizes {
				if got := len(c.RecordsOf(v)); got != n {
					t.Errorf("%v: |R(v%d)| = %d, want %d", kind, v, got, n)
				}
			}
			// The merge version v4 has two parents.
			if got := c.Parents(4); len(got) != 2 {
				t.Errorf("parents(v4) = %v, want 2 parents", got)
			}
			// Every version checks out with exactly its records.
			for v, n := range wantSizes {
				tab, err := c.Checkout([]vgraph.VersionID{v}, "co_"+kind.String()+string(rune('0'+v)))
				if err != nil {
					t.Fatalf("checkout v%d: %v", v, err)
				}
				if tab.Len() != n {
					t.Errorf("%v: checkout(v%d) has %d rows, want %d", kind, v, tab.Len(), n)
				}
				c.DiscardCheckout(tab.Name)
			}
		})
	}
}

func TestCheckoutContentsAgreeAcrossModels(t *testing.T) {
	// All five models must return identical version contents.
	type versionKey map[int64]string // rid -> rendered row
	contents := make(map[ModelKind]map[vgraph.VersionID]versionKey)
	for _, kind := range allModels {
		_, c := buildProteinCVD(t, kind)
		perVersion := make(map[vgraph.VersionID]versionKey)
		for _, v := range c.Versions() {
			tab, err := c.Checkout([]vgraph.VersionID{v}, "x")
			if err != nil {
				t.Fatalf("%v checkout v%d: %v", kind, v, err)
			}
			vk := versionKey{}
			for _, r := range tab.Rows() {
				var parts []string
				for _, cell := range r[1:] {
					parts = append(parts, cell.AsString())
				}
				vk[r[0].AsInt()] = strings.Join(parts, "|")
			}
			perVersion[v] = vk
			c.DiscardCheckout("x")
		}
		contents[kind] = perVersion
	}
	ref := contents[SplitByRlist]
	for _, kind := range allModels[1:] {
		for v, vk := range contents[kind] {
			if len(vk) != len(ref[v]) {
				t.Errorf("%v: version %d has %d records, split-by-rlist has %d", kind, v, len(vk), len(ref[v]))
				continue
			}
			for rid, row := range vk {
				if ref[v][rid] != row {
					t.Errorf("%v: version %d rid %d content %q != %q", kind, v, rid, row, ref[v][rid])
				}
			}
		}
	}
}

func TestStorageOrderingAcrossModels(t *testing.T) {
	// Figure 4.1(a): a-table-per-version uses far more storage than the
	// deduplicated models; combined/vlist/rlist are comparable.
	storage := map[ModelKind]int64{}
	for _, kind := range allModels {
		_, c := buildProteinCVD(t, kind)
		storage[kind] = c.StorageBytes()
	}
	if storage[TablePerVersion] <= storage[SplitByRlist] {
		t.Errorf("a-table-per-version (%d) should use more storage than split-by-rlist (%d)", storage[TablePerVersion], storage[SplitByRlist])
	}
	if storage[SplitByRlist] <= 0 || storage[SplitByVlist] <= 0 || storage[CombinedTable] <= 0 || storage[DeltaBased] <= 0 {
		t.Errorf("storage must be positive: %v", storage)
	}
}

func TestCheckoutCommitRoundTrip(t *testing.T) {
	for _, kind := range allModels {
		t.Run(kind.String(), func(t *testing.T) {
			_, c := buildProteinCVD(t, kind)
			tab, err := c.Checkout([]vgraph.VersionID{3}, "work")
			if err != nil {
				t.Fatal(err)
			}
			// Modify: bump coexpression of one record and add a new pair.
			coIdx := tab.Schema.ColumnIndex("coexpression")
			if _, err := tab.UpdateWhere(
				func(r relstore.Row) bool { return r[1].AsString() == "ENSP472847" },
				func(r relstore.Row) relstore.Row { r[coIdx] = relstore.Int(500); return r },
			); err != nil {
				t.Fatal(err)
			}
			tab.MustInsert(relstore.Row{relstore.Int(0), relstore.Str("ENSP999999"), relstore.Str("ENSP888888"), relstore.Int(1), relstore.Int(2), relstore.Int(3)})
			v5, err := c.CommitTable("work", "local analysis", "dave")
			if err != nil {
				t.Fatal(err)
			}
			if v5 != 5 {
				t.Errorf("new version id = %d, want 5", v5)
			}
			// v5 keeps 3 unchanged records of v3, replaces 1, adds 1 -> 5 records.
			if got := len(c.RecordsOf(v5)); got != 5 {
				t.Errorf("|R(v5)| = %d, want 5", got)
			}
			// Record immutability: the modified record got a fresh rid, so the
			// total distinct records grew by 2 (modified + new).
			if got := c.NumRecords(); got != 9 {
				t.Errorf("|R| = %d, want 9", got)
			}
			// Parent edge weight = 3 shared records.
			if e := c.Graph().Edge(3, v5); e == nil || e.Weight != 3 {
				t.Errorf("edge (3,5) = %+v, want weight 3", e)
			}
			// The staging table is gone after commit.
			if _, ok := c.CheckoutParents("work"); ok {
				t.Error("checkout registration should be cleared after commit")
			}
		})
	}
}

func TestCommitIdenticalVersionSharesAllRecords(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	before := c.NumRecords()
	tab, err := c.Checkout([]vgraph.VersionID{4}, "same")
	if err != nil {
		t.Fatal(err)
	}
	_ = tab
	v5, err := c.CommitTable("same", "no changes", "eve")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumRecords() != before {
		t.Errorf("identical commit should add no records: %d -> %d", before, c.NumRecords())
	}
	if len(c.RecordsOf(v5)) != len(c.RecordsOf(4)) {
		t.Error("identical commit should have the same record set as its parent")
	}
}

func TestNoCrossVersionDiffRule(t *testing.T) {
	// A record deleted and later re-added gets a new rid (Section 3.3.1).
	db := relstore.NewDatabase("db")
	schema := relstore.MustSchema([]relstore.Column{{Name: "k", Type: relstore.TypeString}, {Name: "v", Type: relstore.TypeInt}}, "k")
	c, err := Init(db, "t", schema, []relstore.Row{
		{relstore.Str("a"), relstore.Int(1)},
		{relstore.Str("b"), relstore.Int(2)},
	}, Options{Clock: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	// v2 deletes "b".
	v2, err := c.Commit([]vgraph.VersionID{1}, []relstore.Row{{relstore.Str("a"), relstore.Int(1)}}, schema, "del b", "")
	if err != nil {
		t.Fatal(err)
	}
	// v3 re-adds "b" with identical content.
	_, err = c.Commit([]vgraph.VersionID{v2}, []relstore.Row{
		{relstore.Str("a"), relstore.Int(1)},
		{relstore.Str("b"), relstore.Int(2)},
	}, schema, "re-add b", "")
	if err != nil {
		t.Fatal(err)
	}
	// "b" now exists under two different rids: 4 records total, not 3.
	if got := c.NumRecords(); got != 3 {
		// r1=a, r2=b(old), r3=b(new) -> 3 records
		t.Errorf("|R| = %d, want 3 (old and new b are distinct records)", got)
	}
}

func TestMultiVersionCheckoutPrimaryKeyPrecedence(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	// v1 has <ENSP273047, ENSP261890> with coexpression 0; v3 has the same
	// key with coexpression 83. Listing v1 first must keep v1's record.
	tab, err := c.Checkout([]vgraph.VersionID{1, 3}, "merged")
	if err != nil {
		t.Fatal(err)
	}
	defer c.DiscardCheckout("merged")
	// v1 contributes 3 records; v3 contributes its records minus the two
	// whose primary keys already appeared (r3 shared, r5 same PK as r1).
	if tab.Len() != 5 {
		t.Fatalf("merged checkout has %d rows, want 5", tab.Len())
	}
	coIdx := tab.Schema.ColumnIndex("coexpression")
	for _, r := range tab.Rows() {
		if r[1].AsString() == "ENSP273047" && r[2].AsString() == "ENSP261890" {
			if r[coIdx].AsInt() != 0 {
				t.Errorf("precedence violated: coexpression = %d, want 0 (v1's record)", r[coIdx].AsInt())
			}
		}
	}
	// Reversed precedence keeps v3's record.
	tab2, err := c.Checkout([]vgraph.VersionID{3, 1}, "merged2")
	if err != nil {
		t.Fatal(err)
	}
	defer c.DiscardCheckout("merged2")
	for _, r := range tab2.Rows() {
		if r[1].AsString() == "ENSP273047" && r[2].AsString() == "ENSP261890" {
			if r[coIdx].AsInt() != 83 {
				t.Errorf("precedence violated: coexpression = %d, want 83 (v3's record)", r[coIdx].AsInt())
			}
		}
	}
}

func TestDiff(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	d, err := c.Diff(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// v2 = {r2,r3,r4}, v3 = {r3,r5,r6,r7}: only-in-A = {r2,r4}, only-in-B = {r5,r6,r7}.
	if len(d.OnlyInA) != 2 || len(d.OnlyInB) != 3 {
		t.Errorf("diff sizes = %d, %d, want 2, 3", len(d.OnlyInA), len(d.OnlyInB))
	}
	if _, err := c.Diff(1, 99); err == nil {
		t.Error("diff with unknown version should error")
	}
}

func TestVersionMetadata(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	m, ok := c.Meta(3)
	if !ok {
		t.Fatal("metadata for v3 missing")
	}
	if m.Author != "carol" || m.Message != "clean coexpression" {
		t.Errorf("metadata = %+v", m)
	}
	if m.NumRecords != 4 {
		t.Errorf("NumRecords = %d, want 4", m.NumRecords)
	}
	if len(c.AllMeta()) != 4 {
		t.Errorf("AllMeta returned %d entries, want 4", len(c.AllMeta()))
	}
	latest, ok := c.LatestVersion()
	if !ok || latest != 4 {
		t.Errorf("LatestVersion = %d, want 4", latest)
	}
	// The metadata is a relation of the database, charged what the
	// eight-column table indexed on vid that it stands for took (554 B).
	db, c := buildProteinCVD(t, SplitByRlist)
	if _, isTable := db.Table("interaction_metadata"); isTable || !db.HasTable("interaction_metadata") || c.meta.StorageBytes() != 554 {
		t.Errorf("metadata relation: a table %v, charged %d B, want a relation of 554 B", isTable, c.meta.StorageBytes())
	}
}

func TestCheckoutErrors(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	if _, err := c.Checkout(nil, "x"); err == nil {
		t.Error("checkout with no versions should fail")
	}
	if _, err := c.Checkout([]vgraph.VersionID{1}, ""); err == nil {
		t.Error("checkout with empty table name should fail")
	}
	if _, err := c.Checkout([]vgraph.VersionID{42}, "x"); err == nil {
		t.Error("checkout of unknown version should fail")
	}
	if _, err := c.Checkout([]vgraph.VersionID{1}, "dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkout([]vgraph.VersionID{2}, "dup"); err == nil {
		t.Error("checkout into existing table should fail")
	}
}

func TestCommitErrors(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	schema := proteinSchema()
	if _, err := c.Commit(nil, nil, schema, "", ""); err == nil {
		t.Error("commit without parents should fail")
	}
	if _, err := c.Commit([]vgraph.VersionID{42}, nil, schema, "", ""); err == nil {
		t.Error("commit with unknown parent should fail")
	}
	if _, err := c.CommitTable("neverCheckedOut", "", ""); err == nil {
		t.Error("committing a non-checkout table should fail")
	}
	// Primary key violation within a version.
	dup := []relstore.Row{
		prow("A", "B", 1, 2, 3),
		prow("A", "B", 9, 9, 9),
	}
	if _, err := c.Commit([]vgraph.VersionID{1}, dup, schema, "", ""); err == nil {
		t.Error("duplicate primary key within a version should fail")
	}
}

func TestInitErrors(t *testing.T) {
	db := relstore.NewDatabase("db")
	if _, err := Init(db, "", proteinSchema(), nil, Options{}); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := Init(db, "x", relstore.Schema{}, nil, Options{}); err == nil {
		t.Error("empty schema should fail")
	}
	bad := relstore.MustSchema([]relstore.Column{{Name: "rid", Type: relstore.TypeInt}})
	if _, err := Init(db, "x", bad, nil, Options{}); err == nil {
		t.Error("schema using reserved rid column should fail")
	}
	if _, err := Init(db, "x", proteinSchema(), nil, Options{Model: ModelKind(99)}); err == nil {
		t.Error("unknown model should fail")
	}
}

func TestCSVCheckoutAndCommit(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	var buf bytes.Buffer
	if err := c.CheckoutToCSV([]vgraph.VersionID{2}, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 3 records
		t.Fatalf("CSV has %d lines, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "protein1,") {
		t.Errorf("CSV header = %q", lines[0])
	}
	// Commit a CSV with an extra record back as a new version.
	csvIn := buf.String() + "ENSP111111,ENSP222222,1,1,1\n"
	v, err := c.CommitCSV([]vgraph.VersionID{2}, strings.NewReader(csvIn), proteinSchema(), "csv commit", "frank")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.RecordsOf(v)); got != 4 {
		t.Errorf("CSV-committed version has %d records, want 4", got)
	}
}

func TestDropRemovesTables(t *testing.T) {
	db, c := buildProteinCVD(t, SplitByRlist)
	before := len(db.TableNames())
	if before == 0 {
		t.Fatal("expected backing tables")
	}
	c.Drop()
	for _, name := range db.TableNames() {
		if strings.HasPrefix(name, "interaction") {
			t.Errorf("table %q survived Drop", name)
		}
	}
}

// TestReadsRefuseDroppedCVD: Drop keeps the catalog and the record sets, which
// a snapshot taken before it may still read, but no read that starts after it
// answers from them: each that returns an error says the CVD has been dropped,
// as a checkout and a commit do, and each other finds the CVD empty.
func TestReadsRefuseDroppedCVD(t *testing.T) {
	for _, kind := range allModels {
		_, c := buildProteinCVD(t, kind)
		pred, err := c.NamedPredicate("coexpression", ">", relstore.Int(80))
		if err != nil {
			t.Fatal(err)
		}
		c.Drop()
		reads := map[string]func() (int, error){
			"ScanVersions": func() (int, error) {
				rows, err := c.ScanVersions([]vgraph.VersionID{1, 2}, pred, 0)
				return len(rows), err
			},
			"SelectVersions": func() (int, error) {
				a, err := c.SelectVersions([]vgraph.VersionID{1, 2}, pred, 0)
				return len(a.Sel), err
			},
			"AggregateByVersion": func() (int, error) {
				counts, err := c.AggregateByVersion(nil, nil, CountAgg())
				return len(counts), err
			},
			"VersionsWhere": func() (int, error) {
				vs, err := c.VersionsWhere(nil, CountAgg(), func(relstore.Value) bool { return true })
				return len(vs), err
			},
			"Snapshot": func() (int, error) {
				_, vs, err := c.Snapshot()
				return len(vs), err
			},
			"Checkout": func() (int, error) {
				tab, err := c.Checkout([]vgraph.VersionID{1}, "after")
				if tab != nil {
					return tab.Len(), err
				}
				return 0, err
			},
			"Diff": func() (int, error) {
				d, err := c.Diff(1, 4)
				return len(d.OnlyInA) + len(d.OnlyInB), err
			},
			"VDiff": func() (int, error) {
				d, err := c.VDiff([]vgraph.VersionID{4}, []vgraph.VersionID{1})
				return len(d), err
			},
			"VIntersect": func() (int, error) {
				d, err := c.VIntersect([]vgraph.VersionID{1, 2})
				return len(d), err
			},
			"NamedPredicate": func() (int, error) {
				_, err := c.NamedPredicate("coexpression", ">", relstore.Int(80))
				return 0, err
			},
			"SumAgg": func() (int, error) {
				_, err := c.SumAgg("coexpression")
				return 0, err
			},
		}
		for name, read := range reads {
			if n, err := read(); n != 0 || err == nil || !strings.Contains(err.Error(), "has been dropped") {
				t.Errorf("%v: %s of a dropped CVD = %d results, %v; want none and a has-been-dropped error", kind, name, n, err)
			}
		}
		_, isMeta := c.Meta(1)
		_, isRecord := c.RecordContent(1)
		_, hasLatest := c.LatestVersion()
		versions, delta, _ := c.InitDelta()
		for name, nonEmpty := range map[string]bool{
			"Versions":      len(c.Versions()) > 0,
			"NumVersions":   c.NumVersions() > 0,
			"AllMeta":       len(c.AllMeta()) > 0,
			"Meta":          isMeta,
			"LatestVersion": hasLatest,
			"RecordsOf":     len(c.RecordsOf(1)) > 0,
			"RecordContent": isRecord,
			"NumRecords":    c.NumRecords() > 0,
			"Parents":       len(c.Parents(4)) > 0,
			"Ancestors":     len(c.Ancestors(4)) > 0,
			"Descendants":   len(c.Descendants(1)) > 0,
			"Schema":        len(c.Schema().Columns) > 0,
			"InitDelta":     len(versions)+len(delta) > 0,
		} {
			if nonEmpty {
				t.Errorf("%v: %s of a dropped CVD is not empty", kind, name)
			}
		}
	}
}

// TestCheckoutRacingDrop pins the orders in which a checkout meets Drop. An
// in-memory model's checkout reserves its staging name, then waits for the
// CVD's mutex while Drop tears the model's tables down; holding the mutex here
// stands in for Drop holding it, so the order is forced, not raced. A
// split-by-rlist checkout takes no lock: it reads a state published before
// Drop, and Drop runs before it registers its staging table. Either way the
// checkout says the CVD has been dropped and leaves no table behind.
func TestCheckoutRacingDrop(t *testing.T) {
	for _, kind := range allModels {
		db, c := buildProteinCVD(t, kind)
		var err error
		if kind == SplitByRlist {
			st := c.read()
			c.Drop()
			_, err = c.checkout(st, []vgraph.VersionID{4}, "late")
		} else {
			c.mu.Lock()
			done := make(chan error, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						done <- fmt.Errorf("checkout panicked: %v", r)
					}
				}()
				_, err := c.Checkout([]vgraph.VersionID{4}, "late")
				done <- err
			}()
			// The staging name is reserved before the wait for c.mu: once it
			// shows, the checkout is at the wait or about to be.
			for reserved := false; !reserved; runtime.Gosched() {
				c.ckMu.Lock()
				_, reserved = c.reserved["late"]
				c.ckMu.Unlock()
			}
			c.dropLocked()
			c.mu.Unlock()
			err = <-done
		}
		if err == nil || !strings.Contains(err.Error(), "has been dropped") {
			t.Errorf("%v: checkout that lost the race to Drop returned %v, want a has-been-dropped error", kind, err)
		}
		if db.HasTable("late") {
			t.Errorf("%v: the staging table of a checkout that lost the race to Drop is registered", kind)
		}
	}
}

func TestRecordContentAndRIDs(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	rids := c.RecordsOf(1)
	if len(rids) != 3 {
		t.Fatalf("RecordsOf(1) = %v", rids)
	}
	row, ok := c.RecordContent(rids[0])
	if !ok || len(row) != 5 {
		t.Errorf("RecordContent = %v, %v", row, ok)
	}
	if _, ok := c.RecordContent(9999); ok {
		t.Error("unknown record should not resolve")
	}
	_ = sortedRIDs(rids)
}
