package relstore

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/recset"
)

// Property tests for the columnar layout: FilterVec must agree with the
// row-at-a-time Filter reference on randomized schemas, operators, and
// values across every value type (nulls included), and the per-column
// copy-on-write sharing must be race-free under concurrent readers and
// mutating sharers (run with -race).

var propOps = []CmpOp{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE}

// anyType asks randomValue for a value of a random type.
const anyType = ValueType(0xFF)

// randomValue draws a value of any type; typ == anyType draws a random type.
// Nulls appear regardless of the column's declared type, and a small
// fraction of cells deliberately carry a type other than the declared one
// (the heterogeneous columns schema evolution can produce).
func randomValue(rng *rand.Rand, typ ValueType) Value {
	if typ == anyType || rng.Intn(10) == 0 {
		typ = ValueType(rng.Intn(5) + 1) // TypeInt..TypeIntArray
	}
	if rng.Intn(6) == 0 {
		return Null()
	}
	switch typ {
	case TypeInt:
		return Int(int64(rng.Intn(21) - 10))
	case TypeFloat:
		return Float(float64(rng.Intn(21)-10) / 2)
	case TypeString:
		return Str(fmt.Sprintf("s%02d", rng.Intn(20)))
	case TypeBool:
		return Bool(rng.Intn(2) == 0)
	case TypeIntArray:
		a := make([]int64, rng.Intn(3))
		for i := range a {
			a[i] = int64(rng.Intn(5))
		}
		return IntArray(a)
	default:
		return Null()
	}
}

func randomSchemaTable(rng *rand.Rand) *Table {
	ncols := rng.Intn(4) + 1
	cols := make([]Column, ncols)
	for i := range cols {
		cols[i] = Column{Name: fmt.Sprintf("c%d", i), Type: ValueType(rng.Intn(5) + 1)}
	}
	t := NewTable("prop", MustSchema(cols))
	nrows := rng.Intn(80)
	for i := 0; i < nrows; i++ {
		r := make(Row, ncols)
		for j := range r {
			r[j] = randomValue(rng, cols[j].Type)
		}
		t.MustInsert(r)
	}
	return t
}

// TestFilterVecMatchesFilterProperty: for random tables, columns, operators
// and comparison values, the vectorized scan selects exactly the rows the
// row-at-a-time reference predicate accepts.
func TestFilterVecMatchesFilterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		tbl := randomSchemaTable(rng)
		ci := rng.Intn(len(tbl.Schema.Columns))
		col := tbl.Schema.Columns[ci]
		op := propOps[rng.Intn(len(propOps))]
		val := randomValue(rng, anyType)

		sel, err := tbl.FilterVec(col.Name, op, val)
		if err != nil {
			t.Fatalf("trial %d: FilterVec: %v", trial, err)
		}
		var want Selection
		for i := 0; i < tbl.Len(); i++ {
			if op.Eval(tbl.At(i, ci).Compare(val)) {
				want = append(want, int32(i))
			}
		}
		if len(sel) != len(want) {
			t.Fatalf("trial %d (%s %s %v): FilterVec selected %d rows, reference %d",
				trial, col.Name, op, val, len(sel), len(want))
		}
		for k := range sel {
			if sel[k] != want[k] {
				t.Fatalf("trial %d: selection mismatch at %d: %d vs %d", trial, k, sel[k], want[k])
			}
		}
		// The Filter (materialized rows) reference agrees too.
		rows := tbl.Filter(func(r Row) bool { return op.Eval(r[ci].Compare(val)) })
		if len(rows) != len(sel) {
			t.Fatalf("trial %d: Filter returned %d rows, FilterVec %d", trial, len(rows), len(sel))
		}
	}
}

// TestFilterVecAllMatchesChainedFilter: the compiled multi-predicate form
// equals applying each predicate in sequence row at a time.
func TestFilterVecAllMatchesChainedFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		tbl := randomSchemaTable(rng)
		npred := rng.Intn(3) + 1
		preds := make([]ColPred, npred)
		idxs := make([]int, npred)
		for k := range preds {
			ci := rng.Intn(len(tbl.Schema.Columns))
			idxs[k] = ci
			preds[k] = ColPred{
				Col:   tbl.Schema.Columns[ci].Name,
				Op:    propOps[rng.Intn(len(propOps))],
				Value: randomValue(rng, anyType),
			}
		}
		sel, err := tbl.FilterVecAll(preds)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var want Selection
		for i := 0; i < tbl.Len(); i++ {
			ok := true
			for k, p := range preds {
				if !p.Op.Eval(tbl.At(i, idxs[k]).Compare(p.Value)) {
					ok = false
					break
				}
			}
			if ok {
				want = append(want, int32(i))
			}
		}
		if len(sel) != len(want) {
			t.Fatalf("trial %d: FilterVecAll selected %d rows, reference %d", trial, len(sel), len(want))
		}
		for k := range sel {
			if sel[k] != want[k] {
				t.Fatalf("trial %d: mismatch at %d", trial, k)
			}
		}
	}
}

// TestGatherRoundTrip: gathering a selection and reading it back yields
// exactly the selected rows, whether the gather shared (full cover) or
// copied (subset).
func TestGatherRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		tbl := randomSchemaTable(rng)
		var sel Selection
		if trial%3 == 0 {
			for i := 0; i < tbl.Len(); i++ {
				sel = append(sel, int32(i)) // full cover: the sharing path
			}
		} else {
			for i := 0; i < tbl.Len(); i++ {
				if rng.Intn(2) == 0 {
					sel = append(sel, int32(i))
				}
			}
		}
		out := tbl.GatherInto("g", sel)
		if out.Len() != len(sel) {
			t.Fatalf("gathered %d rows, want %d", out.Len(), len(sel))
		}
		for k, i := range sel {
			a, b := out.RowAt(k), tbl.RowAt(int(i))
			for j := range a {
				if !a[j].Equal(b[j]) {
					t.Fatalf("trial %d: cell (%d,%d) %v != %v", trial, k, j, a[j], b[j])
				}
			}
		}
	}
}

// TestSelectRIDSetMatchesProbe: the rid-column probe equals a row-level
// membership filter.
func TestSelectRIDSetMatchesProbe(t *testing.T) {
	tbl := NewTable("rids", MustSchema([]Column{
		{Name: "rid", Type: TypeInt},
		{Name: "v", Type: TypeString},
	}, "rid"))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		tbl.MustInsert(Row{Int(int64(i)), Str(fmt.Sprintf("v%d", i))})
	}
	set := recset.New()
	for i := 0; i < 120; i++ {
		set.Add(int64(rng.Intn(700)))
	}
	sel, err := tbl.SelectRIDSet("rid", set)
	if err != nil {
		t.Fatal(err)
	}
	var want Selection
	for i := 0; i < tbl.Len(); i++ {
		if set.Contains(tbl.IntAt(i, 0)) {
			want = append(want, int32(i))
		}
	}
	if len(sel) != len(want) {
		t.Fatalf("SelectRIDSet found %d rows, want %d", len(sel), len(want))
	}
	for k := range sel {
		if sel[k] != want[k] {
			t.Fatalf("mismatch at %d", k)
		}
	}
}

// TestColumnCOWConcurrentSharers: many tables share one source's column
// backing; each sharer mutates its own copy concurrently while readers scan
// the source. Copy-on-write must keep the source bit-identical and the run
// race-free (-race).
func TestColumnCOWConcurrentSharers(t *testing.T) {
	src := NewTable("src", MustSchema([]Column{
		{Name: "rid", Type: TypeInt},
		{Name: "name", Type: TypeString},
		{Name: "score", Type: TypeFloat},
	}, "rid"))
	const n = 400
	for i := 0; i < n; i++ {
		src.MustInsert(Row{Int(int64(i)), Str(fmt.Sprintf("g%03d", i)), Float(float64(i) / 3)})
	}
	full := make(Selection, n)
	for i := range full {
		full[i] = int32(i)
	}

	const sharers = 8
	var wg sync.WaitGroup
	for g := 0; g < sharers; g++ {
		stage := src.GatherInto(fmt.Sprintf("stage%d", g), full)
		if stage.SharedColumns() == 0 {
			t.Fatal("full-cover gather should share column backing")
		}
		wg.Add(1)
		go func(g int, stage *Table) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				stage.Set(i%n, 2, Float(float64(g*1000+i)))
			}
			if err := stage.AddColumn(Column{Name: "extra", Type: TypeInt}); err != nil {
				t.Error(err)
			}
		}(g, stage)
	}
	// Concurrent readers of the shared source.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if sel, err := src.FilterVec("score", CmpGT, Float(50)); err != nil || len(sel) == 0 {
					t.Errorf("FilterVec under sharing: sel=%d err=%v", len(sel), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Source unchanged.
	for i := 0; i < n; i++ {
		if src.At(i, 2).AsFloat() != float64(i)/3 {
			t.Fatalf("source mutated at row %d: %v", i, src.At(i, 2))
		}
	}
	if src.Len() != n || len(src.Schema.Columns) != 3 {
		t.Fatalf("source shape changed: %d rows, %d cols", src.Len(), len(src.Schema.Columns))
	}
}

// TestAppendFromMaintainsIndex: bulk column-wise appends keep the unique
// index consistent and reject duplicates.
func TestAppendFromMaintainsIndex(t *testing.T) {
	schema := MustSchema([]Column{{Name: "rid", Type: TypeInt}, {Name: "v", Type: TypeInt}}, "rid")
	src := NewTable("src", schema)
	for i := 0; i < 10; i++ {
		src.MustInsert(Row{Int(int64(i)), Int(int64(i * 2))})
	}
	dst := NewTable("dst", schema.Clone())
	if err := dst.AppendFrom(src, Selection{1, 3, 5}); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 3 {
		t.Fatalf("Len = %d, want 3", dst.Len())
	}
	row, ok := dst.LookupIndex(Int(3))
	if !ok || row[1].AsInt() != 6 {
		t.Fatalf("index lookup after AppendFrom: %v %v", row, ok)
	}
	if err := dst.AppendFrom(src, Selection{3}); err == nil {
		t.Fatal("duplicate key via AppendFrom should error")
	}
	// A failed append must leave no phantom index entries: rid 7 appeared in
	// the same rejected batch as the duplicate, so looking it up afterwards
	// must miss cleanly instead of pointing past the end of the table.
	if err := dst.AppendFrom(src, Selection{7, 3}); err == nil {
		t.Fatal("batch with duplicate key should error")
	}
	if _, ok := dst.LookupIndex(Int(7)); ok {
		t.Fatal("rejected batch leaked an index entry for rid 7")
	}
	// Duplicates within one selection are rejected too.
	if err := dst.AppendFrom(src, Selection{8, 8}); err == nil {
		t.Fatal("intra-selection duplicate should error")
	}
	if _, ok := dst.LookupIndex(Int(8)); ok {
		t.Fatal("rejected intra-dup batch leaked an index entry")
	}
	if dst.Len() != 3 {
		t.Fatalf("Len after rejected batches = %d, want 3", dst.Len())
	}
}

// TestFilterVecExactAbove2To53: integer cells compare with an integer literal
// as int64, so neighbours above 2^53 that share a float64 are told apart, and
// the extremes of int64 order correctly — over the whole column, over a
// selection, and in SortBy. An integer against a float still compares as
// floats.
func TestFilterVecExactAbove2To53(t *testing.T) {
	vals := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 53, 0, 1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2, math.MaxInt64 - 1, math.MaxInt64}
	tbl := NewTable("big", MustSchema([]Column{{Name: "k", Type: TypeInt}}))
	for i := len(vals) - 1; i >= 0; i-- {
		tbl.MustInsert(Row{Int(vals[i])})
	}
	tbl.MustInsert(Row{Null()})
	tbl.MustInsert(Row{Float(1 << 53)})
	exact := func(cell Value, lit int64) (int, bool) {
		if cell.Type != TypeInt {
			return 0, false
		}
		switch {
		case cell.I < lit:
			return -1, true
		case cell.I > lit:
			return 1, true
		}
		return 0, true
	}
	for _, lit := range vals {
		for _, op := range propOps {
			sel, err := tbl.FilterVec("k", op, Int(lit))
			if err != nil {
				t.Fatal(err)
			}
			all := make(Selection, tbl.Len())
			for i := range all {
				all[i] = int32(i)
			}
			refined, err := tbl.FilterVecAll([]ColPred{{Col: "k", Op: CmpGE, Value: Null()}, {Col: "k", Op: op, Value: Int(lit)}})
			if err != nil {
				t.Fatal(err)
			}
			var want Selection
			for i := 0; i < tbl.Len(); i++ {
				cell := tbl.At(i, 0)
				if c, ok := exact(cell, lit); ok && op.Eval(c) || !ok && op.Eval(cell.Compare(Int(lit))) {
					want = append(want, int32(i))
				}
			}
			if fmt.Sprint(sel) != fmt.Sprint(want) || fmt.Sprint(refined) != fmt.Sprint(want) {
				t.Fatalf("k %s %d: FilterVec %v, over a selection %v, want %v", op, lit, sel, refined, want)
			}
		}
	}
	if sel, _ := tbl.FilterVec("k", CmpEQ, Int(1<<53)); len(sel) != 2 { // the integer and the float
		t.Errorf("k = 2^53 selects rows %v, want the integer 2^53 and the float 2^53", sel)
	}
	if sel, _ := tbl.FilterVec("k", CmpEQ, Float(1<<53)); len(sel) != 3 { // 2^53+1 rounds to 2^53
		t.Errorf("k = 2^53 (float) selects rows %v, want the integers 2^53 and 2^53+1 and the float", sel)
	}
	if err := tbl.SortBy(ClusterNone, "k"); err != nil {
		t.Fatal(err)
	}
	var got []int64
	for i := 0; i < tbl.Len(); i++ {
		if v := tbl.At(i, 0); v.Type == TypeInt {
			got = append(got, v.I)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(vals) {
		t.Errorf("SortBy ordered %v, want %v", got, vals)
	}
}

// randomCatalog is randomSchemaTable, of at least minRows rows, behind a
// leading rid column: row r-1 holds rid r, as in a record catalog.
func randomCatalog(rng *rand.Rand, minRows int) *Table {
	src := randomSchemaTable(rng)
	tbl := NewTable("catalog", MustSchema(append([]Column{{Name: "rid", Type: TypeInt}}, src.Schema.Columns...)))
	add := func(r Row) { tbl.MustInsert(append(Row{Int(int64(tbl.Len()) + 1)}, r...)) }
	for _, r := range src.Rows() {
		add(r)
	}
	for tbl.Len() < minRows {
		r := make(Row, len(src.Schema.Columns))
		for j, col := range src.Schema.Columns {
			r[j] = randomValue(rng, col.Type)
		}
		add(r)
	}
	return tbl
}

// TestFilterVecSetMatchesFilterVecAll: refining the rows a record set names
// (rid r at row r-1) selects exactly FilterVecAll's rows that the set holds,
// cut at the limit, and reads no row outside the set. A set whose rids are not
// at their rows is refused.
func TestFilterVecSetMatchesFilterVecAll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		minRows := 0
		if trial%10 == 0 {
			minRows = 3 * selectBlock // several blocks
		}
		tbl := randomCatalog(rng, minRows)
		set := recset.New()
		for i := 0; i < tbl.Len(); i++ {
			if rng.Intn(3) != 0 {
				set.Add(int64(i) + 1)
			}
		}
		preds := make([]ColPred, rng.Intn(3))
		for k := range preds {
			preds[k] = ColPred{Col: tbl.Schema.Columns[rng.Intn(len(tbl.Schema.Columns))].Name, Op: propOps[rng.Intn(len(propOps))], Value: randomValue(rng, anyType)}
		}
		limit := rng.Intn(40) - 10
		all, err := tbl.FilterVecAll(preds)
		if err != nil {
			t.Fatal(err)
		}
		var want Selection
		for _, pos := range all {
			if set.Contains(int64(pos)+1) && (limit <= 0 || len(want) < limit) {
				want = append(want, pos)
			}
		}
		prefix, total := Selection{-7}, limit
		if limit > 0 {
			total++ // the limit counts what dst already holds
		}
		before := tbl.Stats().Snapshot()
		got, err := tbl.FilterVecSet(prefix, set, preds, total)
		if err != nil {
			t.Fatal(err)
		}
		if reads := before.Diff(tbl.Stats().Snapshot()).TotalReads(); reads > int64(len(preds)+1)*set.Len() {
			t.Errorf("trial %d: %d reads for a set of %d", trial, reads, set.Len())
		}
		if fmt.Sprint(got) != fmt.Sprint(append(prefix, want...)) {
			t.Fatalf("trial %d (%v, limit %d): FilterVecSet %v, want %v", trial, preds, limit, got, want)
		}
	}
	tbl := randomCatalog(rng, 4)
	if _, err := tbl.FilterVecSet(nil, recset.FromSlice([]int64{2, int64(tbl.Len()) + 1}), nil, 0); err == nil {
		t.Error("a rid past the table was walked")
	}
	reversed := NewTable("reversed", tbl.Schema)
	for i := tbl.Len() - 1; i >= 0; i-- {
		reversed.MustInsert(tbl.RowAt(i))
	}
	if _, err := reversed.FilterVecSet(nil, recset.FromSlice([]int64{1, 2}), nil, 0); err == nil {
		t.Error("a table in another order was walked as if row r-1 held rid r")
	}
}

// TestRowBlock: the block holds the selected rows' cells from the given
// column on, row after row, as RowAt reads them.
func TestRowBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		tbl := randomSchemaTable(rng)
		var sel Selection
		for i := 0; i < tbl.Len(); i++ {
			if rng.Intn(2) == 0 {
				sel = append(sel, int32(i))
			}
		}
		from := rng.Intn(len(tbl.Schema.Columns) + 1)
		block, width := tbl.RowBlock(sel, from)
		if width != len(tbl.Schema.Columns)-from || len(block) != len(sel)*width {
			t.Fatalf("trial %d: %d cells of width %d for %d rows", trial, len(block), width, len(sel))
		}
		for k, i := range sel {
			want := tbl.RowAt(int(i))[from:]
			for j := range want {
				if !block[k*width+j].Identical(want[j]) {
					t.Fatalf("trial %d: row %d cell %d is %v, want %v", trial, k, j, block[k*width+j], want[j])
				}
			}
		}
	}
}
