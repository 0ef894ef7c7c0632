package vquel

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cvd"
	"repro/internal/recset"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// catalogOf builds a record catalog: a rid column, then schema's columns, with
// rows[r-1] as record r.
func catalogOf(name string, schema relstore.Schema, rows ...relstore.Row) *relstore.Table {
	cols := append([]relstore.Column{{Name: "rid", Type: relstore.TypeInt}}, schema.Columns...)
	cat := relstore.NewTable(name, relstore.MustSchema(cols))
	for i, r := range rows {
		cat.MustInsert(append(relstore.Row{relstore.Int(int64(i + 1))}, r...))
	}
	return cat
}

// relationOf names the records rids of a catalog as a relation.
func relationOf(name string, changed bool, catalog *relstore.Table, rids ...int64) *Relation {
	return &Relation{Name: name, Changed: changed, Catalog: catalog, Records: recset.FromSorted(rids)}
}

// buildFigure61Repo builds the repository of Figure 6.1: three versions v01,
// v02, v03 each containing Employee and Department relations. v02 adds
// employees; v03 modifies one. Like a CVD's, each relation is one catalog per
// relation name plus the version's record set.
func buildFigure61Repo(t testing.TB) *Repository {
	t.Helper()
	empSchema := relstore.MustSchema([]relstore.Column{
		{Name: "employee_id", Type: relstore.TypeString},
		{Name: "last_name", Type: relstore.TypeString},
		{Name: "age", Type: relstore.TypeInt},
		{Name: "dept_id", Type: relstore.TypeInt},
	})
	deptSchema := relstore.MustSchema([]relstore.Column{
		{Name: "dept_id", Type: relstore.TypeInt},
		{Name: "name", Type: relstore.TypeString},
	})
	e := func(id, last string, age, dept int64) relstore.Row {
		return relstore.Row{relstore.Str(id), relstore.Str(last), relstore.Int(age), relstore.Int(dept)}
	}
	emp := catalogOf("Employee", empSchema,
		e("e01", "Smith", 34, 1), e("e02", "Jones", 51, 1), e("e03", "Smith", 45, 2), // 1-3
		e("e04", "Lee", 29, 2), e("e05", "Smith", 62, 1), // 4-5
		e("e01", "Smith", 35, 1)) // 6
	dept := catalogOf("Department", deptSchema,
		relstore.Row{relstore.Int(1), relstore.Str("eng")},
		relstore.Row{relstore.Int(2), relstore.Str("bio")})
	repo := NewRepository()
	ts := time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC)
	v1 := &Version{ID: "v01", Author: "Alice", Message: "initial", CommitTS: ts,
		Relations: map[string]*Relation{
			"Employee":   relationOf("Employee", true, emp, 1, 2, 3),
			"Department": relationOf("Department", true, dept, 1, 2),
		}}
	if err := repo.AddVersion(v1); err != nil {
		t.Fatal(err)
	}
	v2 := &Version{ID: "v02", Author: "Bob", Message: "add hires", CommitTS: ts.AddDate(0, 1, 0),
		Relations: map[string]*Relation{
			"Employee":   relationOf("Employee", true, emp, 1, 2, 3, 4, 5),
			"Department": relationOf("Department", false, dept, 1, 2),
		}}
	if err := repo.AddVersion(v2, "v01"); err != nil {
		t.Fatal(err)
	}
	v3 := &Version{ID: "v03", Author: "Alice", Message: "fix age", CommitTS: ts.AddDate(0, 2, 0),
		Relations: map[string]*Relation{
			"Employee":   relationOf("Employee", true, emp, 2, 3, 6),
			"Department": relationOf("Department", false, dept, 1, 2),
		}}
	if err := repo.AddVersion(v3, "v01"); err != nil {
		t.Fatal(err)
	}
	return repo
}

// copyFromCVD is FromCVD as it was before relations read the store: every
// version's records are copied, row by row, into a private catalog that holds
// only them (record k of the version is its row k-1). It is the oracle the
// store-backed relations are checked against.
func copyFromCVD(c *cvd.CVD) (*Repository, error) {
	repo := NewRepository()
	schema := c.Schema()
	schema.PrimaryKey = nil
	for _, meta := range c.AllMeta() {
		var rows []relstore.Row
		for _, rid := range c.RecordsOf(meta.ID) {
			row, ok := c.RecordContent(rid)
			if !ok {
				return nil, fmt.Errorf("record %d of version %d is not in the catalog", rid, meta.ID)
			}
			rows = append(rows, row)
		}
		rids := make([]int64, len(rows))
		for i := range rids {
			rids[i] = int64(i + 1)
		}
		v := &Version{
			ID:        fmt.Sprintf("v%d", meta.ID),
			Author:    meta.Author,
			Message:   meta.Message,
			CommitTS:  meta.CommitAt,
			Relations: map[string]*Relation{c.Name(): relationOf(c.Name(), true, catalogOf(c.Name(), schema, rows...), rids...)},
		}
		parentIDs := make([]string, 0, len(meta.Parents))
		for _, p := range meta.Parents {
			parentIDs = append(parentIDs, fmt.Sprintf("v%d", p))
		}
		if err := repo.AddVersion(v, parentIDs...); err != nil {
			return nil, err
		}
	}
	return repo, nil
}

func runQuery(t *testing.T, repo *Repository, q string) *Result {
	t.Helper()
	res, err := NewEvaluator(repo).Run(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return res
}

// Query 6.1: Who is the author of version v01?
func TestQuery61Author(t *testing.T) {
	repo := buildFigure61Repo(t)
	res := runQuery(t, repo, `
		range of V is Version
		retrieve V.author.name
		where V.id = "v01"`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "Alice" {
		t.Errorf("rows = %v, want [[Alice]]", res.Rows)
	}
}

// Query 6.2: What commits did Alice make after a date?
func TestQuery62CommitsByAuthorAfterDate(t *testing.T) {
	repo := buildFigure61Repo(t)
	res := runQuery(t, repo, `
		range of V is Version
		retrieve V.all
		where V.author.name = "Alice" and V.creation_ts >= 04/01/2015`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "v03" {
		t.Errorf("rows = %v, want [[v03]]", res.Rows)
	}
}

// Query 6.3: commit timestamps of versions containing the Employee relation.
func TestQuery63VersionsWithRelation(t *testing.T) {
	repo := buildFigure61Repo(t)
	res := runQuery(t, repo, `
		range of V is Version
		range of R is V.Relations
		retrieve V.commit_ts
		where R.name = "Employee"`)
	if len(res.Rows) != 3 {
		t.Errorf("got %d rows, want 3", len(res.Rows))
	}
}

// Query 6.4: commit history of the Employee relation in reverse
// chronological order.
func TestQuery64CommitHistorySorted(t *testing.T) {
	repo := buildFigure61Repo(t)
	res := runQuery(t, repo, `
		range of V is Version
		range of R is V.Relations
		retrieve V.creation_ts, V.author.name, V.commit_message
		where R.name = "Employee" and R.changed = "true"
		sort by V.creation_ts desc`)
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	// Descending timestamps.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][0].AsInt() > res.Rows[i-1][0].AsInt() {
			t.Errorf("rows not sorted descending: %v", res.Rows)
		}
	}
	if res.Rows[0][1].AsString() != "Alice" {
		t.Errorf("latest commit author = %q, want Alice", res.Rows[0][1].AsString())
	}
}

// Query 6.5: history of tuple e01 across versions.
func TestQuery65TupleHistory(t *testing.T) {
	repo := buildFigure61Repo(t)
	res := runQuery(t, repo, `
		range of V is Version
		range of R is V.Relations
		range of E is R.Tuples
		retrieve E.all, V.commit_id, V.creation_ts
		where E.employee_id = "e01" and R.name = "Employee"
		sort by V.creation_ts`)
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3 (one per version)", len(res.Rows))
	}
	if res.Rows[0][1].AsString() != "v01" {
		t.Errorf("first row version = %q, want v01", res.Rows[0][1].AsString())
	}
}

// Query 6.6-style: inline filters in range declarations.
func TestQuery66InlineFilters(t *testing.T) {
	repo := buildFigure61Repo(t)
	res := runQuery(t, repo, `
		range of E1 is Version(id = "v01").Relations(name = "Employee").Tuples
		range of E2 is Version(id = "v03").Relations(name = "Employee").Tuples
		retrieve E1.all
		where E1.employee_id = E2.employee_id and E1.age != E2.age`)
	// Only e01's age changed between v01 and v03.
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1: %v", len(res.Rows), res.Rows)
	}
}

// Query 6.7: for each version, count the relations inside it.
func TestQuery67CountRelationsPerVersion(t *testing.T) {
	repo := buildFigure61Repo(t)
	res := runQuery(t, repo, `
		range of V is Version
		range of R is V.Relations
		retrieve V.id, count(R)`)
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].AsInt() != 2 {
			t.Errorf("version %s has count %d, want 2", r[0].AsString(), r[1].AsInt())
		}
	}
}

// Query 6.8: versions containing exactly 3 employees named Smith.
func TestQuery68AggregateInWhere(t *testing.T) {
	repo := buildFigure61Repo(t)
	res := runQuery(t, repo, `
		range of V is Version
		range of E is V.Relations(name = "Employee").Tuples
		retrieve V.commit_id
		where count(E.employee_id where E.last_name = "Smith") = 3`)
	// v02 has Smith x3 (e01, e03, e05); v01 and v03 have 2.
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "v02" {
		t.Errorf("rows = %v, want [[v02]]", res.Rows)
	}
}

// Query 6.11-style: which version contains the most employees above age 50
// (expressed with max over an aggregate comparison instead of retrieve-into).
func TestAggregateTargetsAndSumAvg(t *testing.T) {
	repo := buildFigure61Repo(t)
	res := runQuery(t, repo, `
		range of V is Version
		range of E is V.Relations(name = "Employee").Tuples
		retrieve V.id, count(E), sum(E.age), avg(E.age), max(E.age), min(E.age)`)
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	byVersion := map[string][]relstore.Value{}
	for _, r := range res.Rows {
		byVersion[r[0].AsString()] = r
	}
	if byVersion["v02"][1].AsInt() != 5 {
		t.Errorf("count(v02) = %d, want 5", byVersion["v02"][1].AsInt())
	}
	if byVersion["v01"][2].AsFloat() != 34+51+45 {
		t.Errorf("sum age(v01) = %g, want 130", byVersion["v01"][2].AsFloat())
	}
	if byVersion["v03"][4].AsInt() != 51 {
		t.Errorf("max age(v03) = %d, want 51", byVersion["v03"][4].AsInt())
	}
	if byVersion["v02"][5].AsInt() != 29 {
		t.Errorf("min age(v02) = %d, want 29", byVersion["v02"][5].AsInt())
	}
}

// Query 6.13: versions within 2 commits of v01 with fewer than 100 employees.
func TestQuery613GraphTraversalN(t *testing.T) {
	repo := buildFigure61Repo(t)
	res := runQuery(t, repo, `
		range of V is Version(id = "v01")
		range of N is V.N(2)
		range of E is N.Relations(name = "Employee").Tuples
		retrieve N.all
		where count(E) < 100`)
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2 (v02 and v03)", len(res.Rows))
	}
}

// Graph traversal P and D.
func TestGraphTraversalPD(t *testing.T) {
	repo := buildFigure61Repo(t)
	res := runQuery(t, repo, `
		range of V is Version(id = "v02")
		range of P is V.P(1)
		retrieve P.id`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "v01" {
		t.Errorf("P(1) of v02 = %v, want v01", res.Rows)
	}
	res = runQuery(t, repo, `
		range of V is Version(id = "v01")
		range of D is V.D()
		retrieve unique D.id`)
	if len(res.Rows) != 2 {
		t.Errorf("descendants of v01 = %v, want 2", res.Rows)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"retrieve V.id",
		"range of V is Version retrieve",
		"range of V is Version select V.id",
		`range of V is Version retrieve V.id where V.id ~ "x"`,
		`range of V is Version retrieve V.id where`,
		`range of V is Version(id = "unterminated`,
		"range of V is Version retrieve V.id extra",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("query %q should fail to parse", q)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	repo := buildFigure61Repo(t)
	ev := NewEvaluator(repo)
	bad := []string{
		`range of V is Nothing retrieve V.id`,
		`range of V is Version retrieve V.bogus_field`,
		`range of V is Version range of R is V.Relations retrieve R.bogus`,
	}
	for _, q := range bad {
		if _, err := ev.Run(q); err == nil {
			t.Errorf("query %q should fail to evaluate", q)
		}
	}
}

func TestRepositoryErrors(t *testing.T) {
	repo := NewRepository()
	if err := repo.AddVersion(&Version{}); err == nil {
		t.Error("version without id should fail")
	}
	if err := repo.AddVersion(&Version{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := repo.AddVersion(&Version{ID: "a"}); err == nil {
		t.Error("duplicate version should fail")
	}
	if err := repo.AddVersion(&Version{ID: "b"}, "missing"); err == nil {
		t.Error("unknown parent should fail")
	}
	if _, ok := repo.Version("a"); !ok {
		t.Error("Version(a) should exist")
	}
	if len(repo.Versions()) != 1 {
		t.Error("Versions() should have one entry")
	}
}

func TestFromCVD(t *testing.T) {
	db := relstore.NewDatabase("db")
	schema := relstore.MustSchema([]relstore.Column{
		{Name: "protein1", Type: relstore.TypeString},
		{Name: "coexpression", Type: relstore.TypeInt},
	}, "protein1")
	c, err := cvd.Init(db, "interaction", schema, []relstore.Row{
		{relstore.Str("A"), relstore.Int(10)},
		{relstore.Str("B"), relstore.Int(90)},
	}, cvd.Options{Author: "alice", Message: "init"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit([]vgraph.VersionID{1}, []relstore.Row{
		{relstore.Str("A"), relstore.Int(10)},
		{relstore.Str("B"), relstore.Int(95)},
		{relstore.Str("C"), relstore.Int(50)},
	}, schema, "update", "bob"); err != nil {
		t.Fatal(err)
	}
	repo, err := FromCVD(c)
	if err != nil {
		t.Fatal(err)
	}
	res := runQuery(t, repo, `
		range of V is Version
		range of E is V.Relations(name = "interaction").Tuples
		retrieve V.id, count(E.protein1 where E.coexpression > 80)`)
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].AsInt() != 1 {
			t.Errorf("version %s: count = %d, want 1", r[0].AsString(), r[1].AsInt())
		}
	}
	// Version-graph queries work through the CVD bridge too.
	res = runQuery(t, repo, `
		range of V is Version(id = "v2")
		range of P is V.P()
		retrieve P.id`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "v1" {
		t.Errorf("ancestors of v2 = %v, want [v1]", res.Rows)
	}
}

// Inline scalar tuple filters push down to the vectorized column scan; the
// result must match the row-at-a-time evaluation exactly, for both operand
// orders and for filters the pushdown must decline (special attributes).
func TestTupleFilterPushdownEquivalence(t *testing.T) {
	repo := buildFigure61Repo(t)
	res := runQuery(t, repo, `
		range of E is Version(id = "v02").Relations(name = "Employee").Tuples(age > 40)
		retrieve E.employee_id, E.age`)
	if len(res.Rows) != 3 {
		t.Fatalf("age > 40 in v02: got %d rows, want 3: %v", len(res.Rows), res.Rows)
	}
	for _, r := range res.Rows {
		if r[1].AsInt() <= 40 {
			t.Errorf("pushdown returned non-matching row: %v", r)
		}
	}
	// A string-typed column filter takes the same pushdown path.
	smiths := runQuery(t, repo, `
		range of E is Version(id = "v02").Relations(name = "Employee").Tuples(last_name = "Smith")
		retrieve E.employee_id`)
	if len(smiths.Rows) != 3 {
		t.Errorf("last_name = Smith in v02: got %d rows, want 3", len(smiths.Rows))
	}
	// The special tuple attribute `id` is NOT a column: the filter must fall
	// back to the row-at-a-time path and keep its tuple-index semantics.
	byIdx := runQuery(t, repo, `
		range of E is Version(id = "v02").Relations(name = "Employee").Tuples(id = 0)
		retrieve E.employee_id`)
	if len(byIdx.Rows) != 1 {
		t.Errorf("id = 0 filter: got %d rows, want 1 (tuple index, not a column)", len(byIdx.Rows))
	}
}

// TestAggregatesFoldEachTuple: an aggregate over a tuple attribute folds it
// once per tuple, not once per distinct value (QUEL's non-unique aggregates).
// v01's employees are in departments 1, 1 and 2, and two are named Smith.
func TestAggregatesFoldEachTuple(t *testing.T) {
	repo := buildFigure61Repo(t)
	res := runQuery(t, repo, `
		range of V is Version(id = "v01")
		range of E is V.Relations(name = "Employee").Tuples
		retrieve sum(E.dept_id), avg(E.dept_id), count(E.last_name)`)
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(res.Rows))
	}
	row := res.Rows[0]
	if got := row[0].AsFloat(); got != 4 {
		t.Errorf("sum(E.dept_id) = %g, want 4", got)
	}
	if got := row[1].AsFloat(); got != 4.0/3 {
		t.Errorf("avg(E.dept_id) = %g, want 4/3", got)
	}
	if got := row[2].AsInt(); got != 3 {
		t.Errorf("count(E.last_name) = %d, want 3", got)
	}
}
