package cvd

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/relstore"
	"repro/internal/vgraph"
)

func TestScanVersionsWithPredicateAndLimit(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	// SELECT * FROM VERSION 1, 2 OF CVD interaction WHERE coexpression > 80 LIMIT 50
	pred, err := c.NamedPredicate("coexpression", ">", relstore.Int(80))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.ScanVersions([]vgraph.VersionID{1, 2}, pred, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Only r3 (coexpression 164) in v1 and v2, and r4 (975) in v2 qualify.
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	// LIMIT stops early.
	limited, err := c.ScanVersions([]vgraph.VersionID{1, 2}, pred, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 2 {
		t.Errorf("limit ignored: got %d rows", len(limited))
	}
	if _, err := c.ScanVersions([]vgraph.VersionID{99}, nil, 0); err == nil {
		t.Error("scan of unknown version should fail")
	}
	if _, err := c.NamedPredicate("nope", "=", relstore.Int(1)); err == nil {
		t.Error("predicate on unknown column should fail")
	}
}

func TestPredicateOperators(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		pred, err := c.NamedPredicate("cooccurrence", op, relstore.Int(53))
		if err != nil {
			t.Fatalf("op %s: %v", op, err)
		}
		if _, err := c.ScanVersions([]vgraph.VersionID{1}, pred, 0); err != nil {
			t.Fatalf("op %s: %v", op, err)
		}
	}
	pred, _ := c.NamedPredicate("cooccurrence", "bogus", relstore.Int(1))
	rows, _ := c.ScanVersions([]vgraph.VersionID{1}, pred, 0)
	if len(rows) != 0 {
		t.Error("bogus operator should match nothing")
	}
}

// TestMultiPredicatePushdownMatchesRowFallback pins that the compiled
// multi-predicate (NamedPredicateAll, pushed down as a chained selection
// refinement) selects exactly the rows the equivalent opaque conjunction
// does.
func TestMultiPredicatePushdownMatchesRowFallback(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	versions := c.Versions()
	named, err := c.NamedPredicateAll([]ColumnComparison{
		{Column: "cooccurrence", Op: ">", Value: relstore.Int(0)},
		{Column: "protein1", Op: "=", Value: relstore.Str("ENSP273047")},
	})
	if err != nil {
		t.Fatal(err)
	}
	schema := c.Schema()
	coIdx, p1Idx := schema.ColumnIndex("cooccurrence"), schema.ColumnIndex("protein1")
	opaque := RowPredicate(func(r relstore.Row) bool {
		return coIdx < len(r) && p1Idx < len(r) &&
			r[coIdx].Compare(relstore.Int(0)) > 0 &&
			r[p1Idx].Compare(relstore.Str("ENSP273047")) == 0
	})
	fast, err := c.ScanVersions(versions, named, 0)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := c.ScanVersions(versions, opaque, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) == 0 || len(fast) != len(slow) {
		t.Fatalf("multi-predicate pushdown %d rows, fallback %d", len(fast), len(slow))
	}
	for i := range fast {
		if fast[i].Version != slow[i].Version || fast[i].RID != slow[i].RID {
			t.Fatalf("row %d differs: %+v vs %+v", i, fast[i], slow[i])
		}
	}
	if _, err := c.NamedPredicateAll(nil); err == nil {
		t.Error("empty comparison list should error")
	}
	if _, err := c.NamedPredicateAll([]ColumnComparison{{Column: "nope", Op: "=", Value: relstore.Int(1)}}); err == nil {
		t.Error("unknown column should error")
	}
}

// TestPredicatePushdownEvolvedColumnNulls pins the delicate pushdown case:
// a predicate over a column added by schema evolution, where every
// pre-evolution record reads NULL (padded by AddColumn on the data table
// and by recordContentLocked in the catalog) and NULL sorts before
// everything — so e.g. `< 0.5` matches all old records. The vectorized
// FilterVec plan and the row-at-a-time fallback must agree exactly.
func TestPredicatePushdownEvolvedColumnNulls(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	wide := relstore.MustSchema([]relstore.Column{
		{Name: "protein1", Type: relstore.TypeString},
		{Name: "confidence", Type: relstore.TypeFloat},
	})
	if _, err := c.Commit([]vgraph.VersionID{4},
		[]relstore.Row{{relstore.Str("ENSP900000"), relstore.Float(0.9)}},
		wide, "evolve: add confidence", "dave"); err != nil {
		t.Fatalf("evolving commit: %v", err)
	}
	versions := c.Versions()
	idx := c.Schema().ColumnIndex("confidence")
	if idx < 0 {
		t.Fatal("schema evolution did not add the confidence column")
	}
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		val := relstore.Float(0.5)
		named, err := c.NamedPredicate("confidence", op, val)
		if err != nil {
			t.Fatal(err)
		}
		cmp, _ := relstore.ParseCmpOp(op)
		opaque := RowPredicate(func(r relstore.Row) bool {
			return idx < len(r) && cmp.Eval(r[idx].Compare(val))
		})
		fast, err := c.ScanVersions(versions, named, 0)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := c.ScanVersions(versions, opaque, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(fast) != len(slow) {
			t.Fatalf("op %s: pushdown %d rows, fallback %d", op, len(fast), len(slow))
		}
		for i := range fast {
			if fast[i].Version != slow[i].Version || fast[i].RID != slow[i].RID {
				t.Fatalf("op %s: row %d differs: %+v vs %+v", op, i, fast[i], slow[i])
			}
		}
		// The NULL-matching operators must actually select old records,
		// otherwise this test is vacuous.
		if (op == "<" || op == "<=" || op == "!=") && len(fast) == 0 {
			t.Fatalf("op %s selected nothing; expected NULL cells to match", op)
		}
	}
}

// TestPredicatePushdownMatchesRowFallback pins that the vectorized pushdown
// (NamedPredicate on a split-by-rlist CVD) selects exactly the rows an
// equivalent opaque RowPredicate does — across every model and operator.
func TestPredicatePushdownMatchesRowFallback(t *testing.T) {
	for _, kind := range []ModelKind{SplitByRlist, CombinedTable} {
		_, c := buildProteinCVD(t, kind)
		versions := c.Versions()
		for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
			for _, val := range []relstore.Value{relstore.Int(53), relstore.Int(0), relstore.Null(), relstore.Str("ENSP261890")} {
				named, err := c.NamedPredicate("cooccurrence", op, val)
				if err != nil {
					t.Fatal(err)
				}
				cmp, _ := relstore.ParseCmpOp(op)
				idx := -1
				for i, col := range c.Schema().Columns {
					if col.Name == "cooccurrence" {
						idx = i
					}
				}
				opaque := RowPredicate(func(r relstore.Row) bool {
					return idx < len(r) && cmp.Eval(r[idx].Compare(val))
				})
				fast, err := c.ScanVersions(versions, named, 0)
				if err != nil {
					t.Fatal(err)
				}
				slow, err := c.ScanVersions(versions, opaque, 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(fast) != len(slow) {
					t.Fatalf("model %v op %s val %v: pushdown %d rows, fallback %d", kind, op, val, len(fast), len(slow))
				}
				for i := range fast {
					if fast[i].Version != slow[i].Version || fast[i].RID != slow[i].RID {
						t.Fatalf("model %v op %s: row %d differs: %+v vs %+v", kind, op, i, fast[i], slow[i])
					}
				}
			}
		}
	}
}

func TestAggregateByVersion(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	// SELECT vid, count(*) FROM CVD interaction GROUP BY vid
	counts, err := c.AggregateByVersion(nil, nil, CountAgg())
	if err != nil {
		t.Fatal(err)
	}
	want := map[vgraph.VersionID]int64{1: 3, 2: 3, 3: 4, 4: 6}
	for v, n := range want {
		if counts[v].AsInt() != n {
			t.Errorf("count(v%d) = %d, want %d", v, counts[v].AsInt(), n)
		}
	}
	// Aggregate with a predicate: count of tuples with coexpression > 80.
	pred, _ := c.NamedPredicate("coexpression", ">", relstore.Int(80))
	filtered, err := c.AggregateByVersion([]vgraph.VersionID{3, 4}, pred, CountAgg())
	if err != nil {
		t.Fatal(err)
	}
	if filtered[3].AsInt() != 3 {
		t.Errorf("filtered count(v3) = %d, want 3 (r3, r5, r6)", filtered[3].AsInt())
	}
	if filtered[4].AsInt() != 4 {
		t.Errorf("filtered count(v4) = %d, want 4 (r3, r4, r5, r6)", filtered[4].AsInt())
	}
	// Sum / Avg / Max aggregators.
	sum, err := c.SumAgg("coexpression")
	if err != nil {
		t.Fatal(err)
	}
	sums, _ := c.AggregateByVersion([]vgraph.VersionID{1}, nil, sum)
	if sums[1].AsFloat() != 164 {
		t.Errorf("sum coexpression(v1) = %g, want 164", sums[1].AsFloat())
	}
	avg, _ := c.AvgAgg("coexpression")
	avgs, _ := c.AggregateByVersion([]vgraph.VersionID{1}, nil, avg)
	if got := avgs[1].AsFloat(); got < 54 || got > 55 {
		t.Errorf("avg coexpression(v1) = %g, want ~54.7", got)
	}
	max, _ := c.MaxAgg("coexpression")
	maxs, _ := c.AggregateByVersion([]vgraph.VersionID{2}, nil, max)
	if maxs[2].AsInt() != 975 {
		t.Errorf("max coexpression(v2) = %d, want 975", maxs[2].AsInt())
	}
	if _, err := c.SumAgg("missing"); err == nil {
		t.Error("sum of missing column should fail")
	}
	if _, err := c.AggregateByVersion(nil, nil, nil); err == nil {
		t.Error("nil aggregator should fail")
	}
	if _, err := c.AggregateByVersion([]vgraph.VersionID{99}, nil, CountAgg()); err == nil {
		t.Error("unknown version should fail")
	}
}

func TestVersionsWhere(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	// Versions containing more than 3 records.
	vs, err := c.VersionsWhere(nil, CountAgg(), func(v relstore.Value) bool { return v.AsInt() > 3 })
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || vs[0] != 3 || vs[1] != 4 {
		t.Errorf("VersionsWhere = %v, want [3 4]", vs)
	}
}

func TestGraphPrimitives(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	if got := c.Ancestors(4); len(got) != 3 {
		t.Errorf("ancestors(4) = %v, want 3", got)
	}
	if got := c.Descendants(1); len(got) != 3 {
		t.Errorf("descendants(1) = %v, want 3", got)
	}
	if got := c.Parents(2); len(got) != 1 || got[0] != 1 {
		t.Errorf("parents(2) = %v, want [1]", got)
	}
}

func TestVDiffAndVIntersect(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	// v_diff(v3, v2): records in v3 but not v2 = {r5, r6, r7} -> 3 records.
	if d, err := c.VDiff([]vgraph.VersionID{3}, []vgraph.VersionID{2}); err != nil || len(d) != 3 {
		t.Errorf("v_diff(3,2) = %v, %v, want 3 records", d, err)
	}
	// v_diff of a version against itself is empty.
	if got, err := c.VDiff([]vgraph.VersionID{2}, []vgraph.VersionID{2}); err != nil || len(got) != 0 {
		t.Errorf("v_diff(2,2) = %v, %v, want empty", got, err)
	}
	// v_intersect(v1, v2, v3, v4) = {r3}.
	if in, err := c.VIntersect([]vgraph.VersionID{1, 2, 3, 4}); err != nil || len(in) != 1 {
		t.Errorf("v_intersect(all) = %v, %v, want exactly one shared record", in, err)
	}
	if got, err := c.VIntersect(nil); got != nil || err != nil {
		t.Errorf("v_intersect() = %v, %v, want nil", got, err)
	}
}

// TestVDiffAndVIntersectRefuseUnknownVersions: a version the CVD does not hold
// is an error, as it is to Diff, not an empty answer.
func TestVDiffAndVIntersectRefuseUnknownVersions(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	if _, err := c.Diff(99, 1); err == nil || !strings.Contains(err.Error(), "unknown version 99") {
		t.Fatalf("Diff(99, 1): %v, want an unknown-version error", err)
	}
	for name, read := range map[string]func() ([]vgraph.RecordID, error){
		"VDiff([99], [1])":    func() ([]vgraph.RecordID, error) { return c.VDiff([]vgraph.VersionID{99}, []vgraph.VersionID{1}) },
		"VDiff([1], [99])":    func() ([]vgraph.RecordID, error) { return c.VDiff([]vgraph.VersionID{1}, []vgraph.VersionID{99}) },
		"VIntersect([1, 99])": func() ([]vgraph.RecordID, error) { return c.VIntersect([]vgraph.VersionID{1, 99}) },
	} {
		if got, err := read(); got != nil || err == nil || !strings.Contains(err.Error(), "unknown version 99") {
			t.Errorf("%s = %v, %v, want an unknown-version error", name, got, err)
		}
	}
}

func TestSchemaEvolutionOnCommit(t *testing.T) {
	// Section 4.3: committing a version with a new attribute and a
	// generalized type evolves the single-pool schema.
	db := relstore.NewDatabase("db")
	schema := relstore.MustSchema([]relstore.Column{
		{Name: "protein1", Type: relstore.TypeString},
		{Name: "protein2", Type: relstore.TypeString},
		{Name: "cooccurrence", Type: relstore.TypeInt},
	}, "protein1", "protein2")
	c, err := Init(db, "evolving", schema, []relstore.Row{
		{relstore.Str("a"), relstore.Str("b"), relstore.Int(5)},
	}, Options{Model: SplitByRlist, Clock: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	// v2 changes cooccurrence to decimal.
	schema2 := relstore.MustSchema([]relstore.Column{
		{Name: "protein1", Type: relstore.TypeString},
		{Name: "protein2", Type: relstore.TypeString},
		{Name: "cooccurrence", Type: relstore.TypeFloat},
	}, "protein1", "protein2")
	if _, err := c.Commit([]vgraph.VersionID{1}, []relstore.Row{
		{relstore.Str("a"), relstore.Str("b"), relstore.Float(5.5)},
	}, schema2, "decimalize", ""); err != nil {
		t.Fatal(err)
	}
	// v3 adds a coexpression attribute.
	schema3 := relstore.MustSchema([]relstore.Column{
		{Name: "protein1", Type: relstore.TypeString},
		{Name: "protein2", Type: relstore.TypeString},
		{Name: "cooccurrence", Type: relstore.TypeFloat},
		{Name: "coexpression", Type: relstore.TypeInt},
	}, "protein1", "protein2")
	if _, err := c.Commit([]vgraph.VersionID{2}, []relstore.Row{
		{relstore.Str("a"), relstore.Str("b"), relstore.Float(5.5), relstore.Int(42)},
	}, schema3, "add coexpression", ""); err != nil {
		t.Fatal(err)
	}
	cur := c.Schema()
	if !cur.HasColumn("coexpression") {
		t.Error("schema evolution did not add coexpression")
	}
	if idx := cur.ColumnIndex("cooccurrence"); cur.Columns[idx].Type != relstore.TypeFloat {
		t.Error("cooccurrence type not generalized to decimal")
	}
	// The attribute registry holds the old and the new cooccurrence entries
	// plus the other attributes (Figure 4.3).
	attrs := c.Attributes().All()
	var coocCount int
	for _, a := range attrs {
		if a.Name == "cooccurrence" {
			coocCount++
		}
	}
	if coocCount != 2 {
		t.Errorf("attribute table has %d cooccurrence entries, want 2 (integer and decimal)", coocCount)
	}
	// Old versions check out with NULL in the new column.
	tab, err := c.Checkout([]vgraph.VersionID{1}, "old")
	if err != nil {
		t.Fatal(err)
	}
	coIdx := tab.Schema.ColumnIndex("coexpression")
	if coIdx < 0 {
		t.Fatal("checked-out table lacks evolved column")
	}
	if !tab.At(0, coIdx).IsNull() {
		t.Errorf("old record should have NULL coexpression, got %v", tab.At(0, coIdx))
	}
	// Metadata records the attribute ids per version; v3 has more than v1.
	m1, _ := c.Meta(1)
	m3, _ := c.Meta(3)
	if len(m3.Attributes) <= len(m1.Attributes) {
		t.Errorf("v3 should record more attributes than v1: %d vs %d", len(m3.Attributes), len(m1.Attributes))
	}
}

func TestAttributeRegistry(t *testing.T) {
	r := NewAttributeRegistry()
	a1 := r.Register("x", relstore.TypeInt)
	a2 := r.Register("x", relstore.TypeInt)
	if a1 != a2 {
		t.Error("identical attribute should reuse its id")
	}
	a3 := r.Register("x", relstore.TypeFloat)
	if a3 == a1 {
		t.Error("type change should create a new attribute id")
	}
	if got, ok := r.Lookup(a3); !ok || got.Type != relstore.TypeFloat {
		t.Errorf("Lookup(%d) = %+v, %v", a3, got, ok)
	}
	if _, ok := r.Lookup(999); ok {
		t.Error("unknown attribute id should not resolve")
	}
	if len(r.All()) != 2 {
		t.Errorf("All() = %v, want 2 attributes", r.All())
	}
}

// sameAnswer compares two select answers (Version, RID, Row) by (Version,
// RID, Row), cells by typed identity.
func sameAnswer(got, want []VersionedRow) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Version != want[i].Version || got[i].RID != want[i].RID {
			return fmt.Errorf("row %d is (v%d, r%d), want (v%d, r%d)", i, got[i].Version, got[i].RID, want[i].Version, want[i].RID)
		}
		if err := sameRows([]relstore.Row{got[i].Row}, []relstore.Row{want[i].Row}); err != nil {
			return fmt.Errorf("row %d (v%d, r%d): %v", i, got[i].Version, got[i].RID, err)
		}
	}
	return nil
}

// planHistory draws a keyed CVD for the plan tests: its integer column holds
// NULLs, stray strings, stray floats and values around 2^53; later versions,
// each derived from a random parent by dropping, updating and adding rows, now
// and then add a column that older records read NULL in.
func planHistory(t testing.TB, ch *chooser) *CVD {
	t.Helper()
	key := int64(0)
	cell := func(typ relstore.ValueType) relstore.Value {
		switch n := ch.intn(16); {
		case n == 0:
			return relstore.Null()
		case n == 1 && typ == relstore.TypeInt:
			return relstore.Str("x" + strconv.Itoa(ch.intn(3)))
		case n == 2 && typ == relstore.TypeInt:
			return relstore.Float(float64(ch.intn(20)) - 4.5)
		case n == 3 && typ == relstore.TypeInt:
			return relstore.Int(1<<53 + int64(ch.intn(3)) - 1)
		}
		switch typ {
		case relstore.TypeInt:
			return relstore.Int(int64(ch.intn(20) - 5))
		case relstore.TypeFloat:
			return relstore.Float(float64(ch.intn(40))/2 - 5)
		default:
			return relstore.Str("s" + strconv.Itoa(ch.intn(10)))
		}
	}
	newRow := func(s relstore.Schema) relstore.Row {
		key++
		r := relstore.Row{relstore.Int(key)}
		for _, col := range s.Columns[1:] {
			r = append(r, cell(col.Type))
		}
		return r
	}
	schema := relstore.MustSchema([]relstore.Column{
		{Name: "k", Type: relstore.TypeInt},
		{Name: "a", Type: relstore.TypeInt},
		{Name: "b", Type: relstore.TypeFloat},
		{Name: "s", Type: relstore.TypeString},
	}, "k")
	rows := make([]relstore.Row, 5+ch.intn(30))
	for i := range rows {
		rows[i] = newRow(schema)
	}
	c, err := Init(relstore.NewDatabase("plans"), "d", schema, rows, Options{Clock: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1 + ch.intn(6); i > 0; i-- {
		all := c.Versions()
		parent := all[ch.intn(len(all))]
		s := c.Schema()
		if ch.intn(3) == 0 {
			s = relstore.MustSchema(append(slices.Clone(s.Columns), relstore.Column{Name: fmt.Sprintf("e%d", len(s.Columns)), Type: diffTypes[ch.intn(len(diffTypes))]}), "k")
		}
		tab, err := c.Checkout([]vgraph.VersionID{parent}, "parent")
		if err != nil {
			t.Fatal(err)
		}
		var next []relstore.Row
		for _, r := range tab.Rows() {
			r = r[1:]
			for len(r) < len(s.Columns) {
				r = append(r, relstore.Null())
			}
			switch ch.intn(4) {
			case 0: // dropped
			case 1:
				r = r.Clone()
				j := 1 + ch.intn(len(r)-1)
				r[j] = cell(s.Columns[j].Type)
				next = append(next, r)
			default:
				next = append(next, r)
			}
		}
		c.DiscardCheckout("parent")
		for j := ch.intn(12); j >= 0; j-- {
			next = append(next, newRow(s))
		}
		if _, err := c.Commit([]vgraph.VersionID{parent}, next, s, "derive", "plans"); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// planQuery draws a conjunction of one to three comparisons — any column, any
// operator, an Int, Float, Str or Null literal — in its compiled form and as
// the equivalent opaque row predicate.
func planQuery(t testing.TB, ch *chooser, c *CVD) (named, opaque Predicate, desc string) {
	t.Helper()
	schema := c.Schema()
	comparisons := make([]ColumnComparison, 1+ch.intn(3))
	for k := range comparisons {
		var lit relstore.Value
		switch ch.intn(6) {
		case 0:
			lit = relstore.Null()
		case 1:
			lit = relstore.Str([]string{"s3", "x1", "4", ""}[ch.intn(4)])
		case 2:
			lit = relstore.Float(float64(ch.intn(40))/2 - 5)
		case 3:
			lit = relstore.Int(1<<53 + int64(ch.intn(3)) - 1)
		default:
			lit = relstore.Int(int64(ch.intn(20) - 5))
		}
		comparisons[k] = ColumnComparison{
			Column: schema.Columns[ch.intn(len(schema.Columns))].Name,
			Op:     []string{"=", "!=", "<", "<=", ">", ">="}[ch.intn(6)],
			Value:  lit,
		}
	}
	named, err := c.NamedPredicateAll(comparisons)
	if err != nil {
		t.Fatal(err)
	}
	idx, ops := make([]int, len(comparisons)), make([]relstore.CmpOp, len(comparisons))
	for k, cmp := range comparisons {
		idx[k] = schema.ColumnIndex(cmp.Column)
		ops[k], _ = relstore.ParseCmpOp(cmp.Op)
	}
	opaque = RowPredicate(func(r relstore.Row) bool {
		for k, cmp := range comparisons {
			if idx[k] >= len(r) || !ops[k].Eval(r[idx[k]].Compare(cmp.Value)) {
				return false
			}
		}
		return true
	})
	return named, opaque, fmt.Sprint(comparisons)
}

// checkPlans runs queries against one history: the pushed-down comparisons and
// the opaque fallback return the same (Version, RID, Row) sequence for one to
// all versions, with no limit and limits that land on a version boundary,
// inside a version and past the answer; the per-version aggregates, folded
// over the lanes, equal the row folds over the answer's rows.
func checkPlans(t *testing.T, ch *chooser, c *CVD, queries int) {
	t.Helper()
	for q := 0; q < queries; q++ {
		named, opaque, desc := planQuery(t, ch, c)
		versions := c.Versions()
		if ch.intn(4) != 0 {
			rand.New(rand.NewSource(int64(ch.intn(1000)))).Shuffle(len(versions), func(i, j int) { versions[i], versions[j] = versions[j], versions[i] })
			versions = versions[:1+ch.intn(len(versions))]
		}
		full, err := c.ScanVersions(versions, opaque, 0)
		if err != nil {
			t.Fatal(err)
		}
		limits := []int{0, 1, len(full), len(full) + 3, 1 + ch.intn(len(full)+1)}
		for i := 1; i < len(full); i++ {
			if full[i].Version != full[i-1].Version {
				limits = append(limits, i, i+1) // on the boundary, and one row into the next version
				break
			}
		}
		for _, limit := range limits {
			want, err := c.ScanVersions(versions, opaque, limit)
			if err != nil {
				t.Fatal(err)
			}
			if n := min(limit, len(full)); limit > 0 && sameAnswer(want, full[:n]) != nil {
				t.Fatalf("%s over %v: the fallback's LIMIT %d is not the first %d rows of its answer", desc, versions, limit, n)
			}
			got, err := c.ScanVersions(versions, named, limit)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameAnswer(got, want); err != nil {
				t.Fatalf("%s over versions %v LIMIT %d: %v", desc, versions, limit, err)
			}
		}
		// The lane folds against the row folds, over the rows of each version.
		rows := make(map[vgraph.VersionID][]relstore.Row, len(versions))
		for _, r := range full {
			rows[r.Version] = append(rows[r.Version], r.Row)
		}
		col := c.Schema().Columns[ch.intn(len(c.Schema().Columns))].Name
		for name, fold := range rowAggregates(c.Schema().ColumnIndex(col)) {
			agg := laneAggregate(t, c, name, col)
			got, err := c.AggregateByVersion(versions, named, agg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range versions {
				if want := fold(rows[v]); !got[v].Identical(want) {
					t.Fatalf("%s: %s(%s) of v%d = %v, want %v", desc, name, col, v, got[v], want)
				}
			}
		}
	}
}

// rowAggregates are the aggregators as they were when they folded boxed rows,
// by name, for the column at idx of a row: the oracle for the lane folds.
func rowAggregates(idx int) map[string]func([]relstore.Row) relstore.Value {
	sum := func(rows []relstore.Row) relstore.Value {
		var sum float64
		for _, r := range rows {
			if idx < len(r) {
				sum += r[idx].AsFloat()
			}
		}
		return relstore.Float(sum)
	}
	return map[string]func([]relstore.Row) relstore.Value{
		"count": func(rows []relstore.Row) relstore.Value { return relstore.Int(int64(len(rows))) },
		"sum":   sum,
		"avg": func(rows []relstore.Row) relstore.Value {
			if len(rows) == 0 {
				return relstore.Null()
			}
			return relstore.Float(sum(rows).AsFloat() / float64(len(rows)))
		},
		"max": func(rows []relstore.Row) relstore.Value {
			best := relstore.Null()
			for _, r := range rows {
				if idx < len(r) && (best.IsNull() || r[idx].Compare(best) > 0) {
					best = r[idx]
				}
			}
			return best
		},
	}
}

// laneAggregate is the aggregator rowAggregates names.
func laneAggregate(t testing.TB, c *CVD, name, col string) Aggregator {
	t.Helper()
	var agg Aggregator
	var err error
	switch name {
	case "count":
		agg = CountAgg()
	case "sum":
		agg, err = c.SumAgg(col)
	case "avg":
		agg, err = c.AvgAgg(col)
	case "max":
		agg, err = c.MaxAgg(col)
	}
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// TestScanVersionsPlans is the select plan's differential test over seeded
// random histories: the pushed-down comparisons and the row-at-a-time
// fallback agree on every answer.
func TestScanVersionsPlans(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		ch := &chooser{rng: rand.New(rand.NewSource(seed))}
		checkPlans(t, ch, planHistory(t, ch), 12)
	}
}

// FuzzScanVersionsPlans lets the fuzzer script the history and the queries of
// TestScanVersionsPlans.
func FuzzScanVersionsPlans(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{5, 3, 0, 1, 2, 3, 4, 5, 15, 14, 13, 1, 2, 0})
	f.Add(int64(3), []byte{29, 5, 2, 3, 3, 3, 1, 1, 1, 2, 2, 2, 0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		ch := &chooser{script: script, rng: rand.New(rand.NewSource(seed))}
		checkPlans(t, ch, planHistory(t, ch), 4)
	})
}

// TestScanVersionsExactAbove2To53: a pushed-down integer comparison tells
// apart integers above 2^53 that share a float64, as the row-at-a-time
// fallback does.
func TestScanVersionsExactAbove2To53(t *testing.T) {
	schema := relstore.MustSchema([]relstore.Column{{Name: "k", Type: relstore.TypeInt}, {Name: "a", Type: relstore.TypeInt}}, "k")
	vals := []int64{math.MinInt64, 1<<53 - 1, 1 << 53, 1<<53 + 1, math.MaxInt64}
	rows := make([]relstore.Row, len(vals))
	for i, x := range vals {
		rows[i] = relstore.Row{relstore.Int(int64(i)), relstore.Int(x)}
	}
	c, err := Init(relstore.NewDatabase("big"), "d", schema, rows, Options{Clock: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		op   string
		lit  int64
		want []vgraph.RecordID
	}{
		{"=", 1 << 53, []vgraph.RecordID{3}},
		{">", 1 << 53, []vgraph.RecordID{4, 5}},
		{"<=", 1<<53 - 1, []vgraph.RecordID{1, 2}},
		{"!=", math.MaxInt64, []vgraph.RecordID{1, 2, 3, 4}},
		{">=", math.MinInt64, []vgraph.RecordID{1, 2, 3, 4, 5}},
	} {
		named, err := c.NamedPredicate("a", tc.op, relstore.Int(tc.lit))
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.ScanVersions([]vgraph.VersionID{1}, named, 0)
		if err != nil {
			t.Fatal(err)
		}
		var rids []vgraph.RecordID
		for _, r := range got {
			rids = append(rids, r.RID)
		}
		if !slices.Equal(rids, tc.want) {
			t.Errorf("a %s %d: records %v, want %v", tc.op, tc.lit, rids, tc.want)
		}
		cmp, _ := relstore.ParseCmpOp(tc.op)
		lit := relstore.Int(tc.lit)
		slow, err := c.ScanVersions([]vgraph.VersionID{1}, RowPredicate(func(r relstore.Row) bool { return cmp.Eval(r[1].Compare(lit)) }), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(slow) != len(tc.want) {
			t.Errorf("a %s %d: the fallback selects %d records, want %d", tc.op, tc.lit, len(slow), len(tc.want))
		}
	}
}

// TestSelectCostsTheVersion is the select's wall-clock-free gate. On a CVD whose
// catalog holds four times the records of the version selected from, a select
// with a LIMIT reads no more rows than the version holds, makes the same few
// allocations whatever it returns, and allocates for a 1 000-row answer within
// 10 % of the answer's own cells. Boxing an answer costs as many allocations
// whatever its cells' types, and 32 B a cell and a VersionedRow a row.
func TestSelectCostsTheVersion(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the program's")
	}
	const width, versionRecords, catalogRecords, limit = 20, 4_000, 16_000, 1_000
	cols := []relstore.Column{{Name: "key", Type: relstore.TypeInt}}
	for i := 1; i < width; i++ {
		cols = append(cols, relstore.Column{Name: fmt.Sprintf("a%02d", i), Type: relstore.TypeInt})
	}
	schema := relstore.MustSchema(cols, "key")
	rng := rand.New(rand.NewSource(3))
	rows := make([]relstore.Row, catalogRecords)
	for k := range rows {
		rows[k] = relstore.Row{relstore.Int(int64(k))}
		for i := 1; i < width; i++ {
			rows[k] = append(rows[k], relstore.Int(rng.Int63n(1_000)))
		}
	}
	db := relstore.NewDatabase("gate")
	c, err := Init(db, "d", schema, rows[:versionRecords], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit([]vgraph.VersionID{1}, rows[versionRecords:], schema, "the rest", "t"); err != nil {
		t.Fatal(err)
	}
	pred, err := c.NamedPredicate("a01", ">=", relstore.Int(500))
	if err != nil {
		t.Fatal(err)
	}
	v := []vgraph.VersionID{1}
	before := db.Stats()
	got, err := c.ScanVersions(v, pred, limit)
	if err != nil || len(got) != limit {
		t.Fatalf("select: %d rows, %v", len(got), err)
	}
	reads := before.Diff(db.Stats()).TotalReads()
	t.Logf("a select from a %d-record version of a %d-record catalog reads %d rows", versionRecords, catalogRecords, reads)
	if reads > versionRecords {
		t.Errorf("a select from a %d-record version of a %d-record catalog read %d rows", versionRecords, catalogRecords, reads)
	}
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			if rows, err := c.ScanVersions(v, pred, n); err != nil || len(rows) != n {
				t.Fatalf("select: %d rows, %v", len(rows), err)
			}
		})
	}
	few, many := allocs(10), allocs(limit)
	t.Logf("a select allocates %.0f times for 10 rows and %.0f for %d", few, many, limit)
	if many > 8 || few != many {
		t.Errorf("a select allocates %.0f times for 10 rows and %.0f for %d, want the same, at most 8", few, many, limit)
	}
	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		if _, err := c.ScanVersions(v, pred, limit); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	per := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	cells := float64(limit * (width) * int(unsafe.Sizeof(relstore.Value{})))
	t.Logf("a %d-row select allocates %.0f B (%.3f of its cells' %.0f B)", limit, per, per/cells, cells)
	if per > 1.1*cells {
		t.Errorf("a %d-row select allocates %.0f B, want <= %.0f", limit, per, 1.1*cells)
	}

	// Boxing the answer (Answer.Rows) costs the same allocations whatever its
	// cells' types, and no more than 32 B a cell (relstore's TestValueLayout)
	// plus a VersionedRow a row:
	// here and on a CVD whose columns hold strings, arrays, floats and bools,
	// with a stray type and a NULL in each.
	mixed := make([]relstore.Column, width)
	for i := range mixed {
		mixed[i] = relstore.Column{Name: cols[i].Name, Type: []relstore.ValueType{relstore.TypeString, relstore.TypeIntArray, relstore.TypeFloat, relstore.TypeBool}[i%4]}
	}
	mixed[0].Type, mixed[1].Type = relstore.TypeInt, relstore.TypeInt
	mixedRows := make([]relstore.Row, versionRecords)
	for k := range mixedRows {
		row := relstore.Row{relstore.Int(int64(k)), relstore.Int(rng.Int63n(1_000))}
		for i := 2; i < width; i++ {
			switch n := rng.Int63n(1_000); {
			case k == i: // a stray type
				row = append(row, relstore.Int(n))
			case k == width+i:
				row = append(row, relstore.Null())
			case mixed[i].Type == relstore.TypeString:
				row = append(row, relstore.Str(fmt.Sprintf("s%d", n)))
			case mixed[i].Type == relstore.TypeIntArray:
				row = append(row, relstore.IntArray([]int64{n, n + 1}))
			case mixed[i].Type == relstore.TypeFloat:
				row = append(row, relstore.Float(float64(n)/4))
			default:
				row = append(row, relstore.Bool(n%2 == 0))
			}
		}
		mixedRows[k] = row
	}
	m, err := Init(relstore.NewDatabase("mixed"), "m", relstore.MustSchema(mixed, "key"), mixedRows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mixedPred, err := m.NamedPredicate("a01", ">=", relstore.Int(500))
	if err != nil {
		t.Fatal(err)
	}
	box := func(c *CVD, pred Predicate) (allocs, bytes float64) {
		a, err := c.SelectVersions(v, pred, limit)
		if err != nil || len(a.Sel) != limit {
			t.Fatalf("select: %d rows, %v", len(a.Sel), err)
		}
		allocs = testing.AllocsPerRun(runs, func() { a.Rows() })
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			a.Rows()
		}
		runtime.ReadMemStats(&m1)
		return allocs, float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	}
	// Past 32 KB an allocation is rounded up to whole 8 KB pages.
	bound := float64(limit*width*32+limit*int(unsafe.Sizeof(VersionedRow{}))) + 2*8192
	ia, ib := box(c, pred)
	ma, mb := box(m, mixedPred)
	t.Logf("boxing %d rows allocates %.0f times and %.0f B of integers, %.0f times and %.0f B of mixed cells (bound %.0f B)", limit, ia, ib, ma, mb, bound)
	if ia != ma || ib > bound || mb > bound {
		t.Errorf("boxing %d rows allocates %.0f times and %.0f B of integers, %.0f times and %.0f B of mixed cells: want the same count, each <= %.0f B", limit, ia, ib, ma, mb, bound)
	}
}

// BenchmarkScanVersions is a pushed-down select with LIMIT 1 000 from a 32 K-row
// version whose records alternate with another version's in a 64 K-record
// catalog of 20 integer columns: the shape of a read.inproc select, half of
// whose rows pass its predicate. It reports the time per row returned and the
// bytes per select.
func BenchmarkScanVersions(b *testing.B) {
	const n, limit = 32 << 10, 1_000
	rng := rand.New(rand.NewSource(13))
	schema, rows := benchRows(rng, n, 0)
	c, err := Init(relstore.NewDatabase("bench"), "d", schema, rows, Options{})
	if err != nil {
		b.Fatal(err)
	}
	_, fresh := benchRows(rng, n, 0)
	for k := 0; k < n; k += 2 {
		rows[k] = fresh[k]
	}
	if _, err := c.Commit([]vgraph.VersionID{1}, rows, schema, "half", "b"); err != nil {
		b.Fatal(err)
	}
	pred, err := c.NamedPredicate("a01", ">=", relstore.Int(500_000))
	if err != nil {
		b.Fatal(err)
	}
	v := []vgraph.VersionID{2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, err := c.ScanVersions(v, pred, limit); err != nil || len(got) != limit {
			b.Fatalf("select: %d rows, %v", len(got), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*limit), "ns/row")
}

// BenchmarkSelectOpaque measures the row-at-a-time fallback of ScanVersions
// and AggregateByVersion: an opaque predicate that half the rows of a
// 10-column, 20 000-record CVD satisfy, over one version (scan) and over both
// of its versions (aggregate).
func BenchmarkSelectOpaque(b *testing.B) {
	const width, records = 10, 20_000
	cols := []relstore.Column{{Name: "key", Type: relstore.TypeInt}}
	for i := 1; i < width; i++ {
		cols = append(cols, relstore.Column{Name: fmt.Sprintf("a%02d", i), Type: relstore.TypeInt})
	}
	schema := relstore.MustSchema(cols, "key")
	rng := rand.New(rand.NewSource(3))
	rows := make([]relstore.Row, records)
	for k := range rows {
		rows[k] = relstore.Row{relstore.Int(int64(k))}
		for i := 1; i < width; i++ {
			rows[k] = append(rows[k], relstore.Int(rng.Int63n(1_000)))
		}
	}
	c, err := Init(relstore.NewDatabase("opaque"), "d", schema, rows[:records/2], Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Commit([]vgraph.VersionID{1}, rows, schema, "the rest", "b"); err != nil {
		b.Fatal(err)
	}
	pred := RowPredicate(func(r relstore.Row) bool { return r[1].AsInt() >= 500 })
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.ScanVersions([]vgraph.VersionID{2}, pred, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("aggregate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.AggregateByVersion(nil, pred, CountAgg()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
