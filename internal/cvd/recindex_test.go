package cvd

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// checkIdentity stores b in an x column of type colB (beside a constant y),
// then stages a in an x column of type colA, and checks the record-identity
// kernel against the reference — Value.Identical between the two cells, each
// canonical under the merged column type: the kernel's verdict, as the commit
// that evolves the schema sees the catalog and as the next one does; that the
// staged row and the catalog record hash alike when they are the same, and
// that the catalog side hashes a record as the staged side hashes its boxed
// cells; and that commits of the row reuse the record exactly when the
// reference says; and that the evolution stores record 1 as canonical casts
// what it stored before — a cell that is not narrower than its column (a
// string or an array in an integer column) is stored as it is, before the
// evolution and after. It returns the reference's verdict.
func checkIdentity(t *testing.T, colB relstore.ValueType, b relstore.Value, colA relstore.ValueType, a relstore.Value) bool {
	t.Helper()
	schema := func(typ relstore.ValueType) relstore.Schema {
		return relstore.MustSchema([]relstore.Column{{Name: "x", Type: typ}, {Name: "y", Type: relstore.TypeInt}})
	}
	c, err := Init(relstore.NewDatabase("id"), "d", schema(colB), []relstore.Row{{b, relstore.Int(7)}}, Options{})
	if err != nil {
		t.Skipf("Init refuses %v in a %v column: %v", b, colB, err)
	}
	merged, _, err := c.mergedSchema(schema(colA))
	if err != nil {
		t.Skipf("no merged schema: %v", err)
	}
	row := relstore.Row{a, relstore.Int(7)}

	// check holds the kernel to the reference on record 1 as the catalog
	// stores it now, and returns the reference's verdict.
	check := func(when string) bool {
		t.Helper()
		typ := merged.Columns[0].Type
		stored, _ := c.RecordContent(1)
		var bufA, bufB relstore.Value
		want := canonical(&a, typ, &bufA).Identical(*canonical(&stored[0], typ, &bufB))
		x := c.buildIndex(merged)
		cat := x.on(c.catalog)
		if got := cat.matches(row, 0, nil); got != want {
			t.Errorf("%s: the kernel says %v is record 1 (%v, stored as %v): %v, the reference %v", when, a, b, stored[0], got, want)
		}
		hs := make([]uint64, 1)
		cat.hashCatalog(x.all, hs)
		if boxed := cat.record(0, x.all, make(relstore.Row, 2)); x.hash(boxed, nil) != hs[0] {
			t.Errorf("%s: the catalog's lanes hash record 1 (%v) unlike its boxed cells %v", when, stored, boxed)
		}
		if want && x.hash(row, nil) != hs[0] {
			t.Errorf("%s: %v is record 1 (%v) but hashes differently", when, a, stored[0])
		}
		if id, _ := x.content.first(x.hash(row, nil)); want && id != 1 {
			t.Errorf("%s: the index does not find record 1 for %v", when, a)
		}
		return want
	}
	want := check("before the evolution")
	stored, _ := c.RecordContent(1)
	v, err := c.Commit([]vgraph.VersionID{1}, []relstore.Row{row}, schema(colA), "a", "t")
	if err != nil {
		t.Skipf("the commit refuses %v in a %v column: %v", a, colA, err)
	}
	if got := c.RecordsOf(v); (got[0] == 1) != want {
		t.Errorf("committing %v over %v resolved to records %v, the reference says same=%v", a, b, got, want)
	}
	var buf relstore.Value
	if after, _ := c.RecordContent(1); !after[0].Identical(*canonical(&stored[0], merged.Columns[0].Type, &buf)) {
		t.Errorf("the evolution to %v rewrote record 1's %v to %v", merged.Columns[0].Type, stored[0], after[0])
	}
	if check("after the evolution") != want {
		t.Errorf("the evolution to %v changed whether %v is record 1 (%v)", merged.Columns[0].Type, a, b)
	}
	again, err := c.Commit([]vgraph.VersionID{1, v}, []relstore.Row{row}, schema(colA), "again", "t")
	if err != nil {
		t.Fatal(err)
	}
	if got, prev := c.RecordsOf(again), c.RecordsOf(v); !slices.Equal(got, prev) {
		t.Errorf("committing %v again resolved to records %v, not %v", a, got, prev)
	}
	return want
}

// TestRecordIdentityEdges: the cells on which typed and rendered identity part,
// which the differential test's generator does not draw, each with the verdict
// Value.Identical gives after canonical.
func TestRecordIdentityEdges(t *testing.T) {
	const (
		tInt    = relstore.TypeInt
		tFloat  = relstore.TypeFloat
		tString = relstore.TypeString
		tBool   = relstore.TypeBool
		tArray  = relstore.TypeIntArray
	)
	null, i, f, s, bl, arr := relstore.Null(), relstore.Int, relstore.Float, relstore.Str, relstore.Bool, relstore.IntArray
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	for _, tc := range []struct {
		name string
		colB relstore.ValueType
		b    relstore.Value
		colA relstore.ValueType
		a    relstore.Value
		same bool
	}{
		{"NaN is itself", tFloat, f(math.NaN()), tFloat, f(math.NaN()), true},
		{"NaNs of two payloads", tFloat, f(math.NaN()), tFloat, f(otherNaN), false},
		{"-0.0 is not +0.0", tFloat, f(math.Copysign(0, -1)), tFloat, f(0), false},
		{"-0.0 is itself", tFloat, f(math.Copysign(0, -1)), tFloat, f(math.Copysign(0, -1)), true},
		{"true", tBool, bl(true), tBool, bl(true), true},
		{"true is not false", tBool, bl(true), tBool, bl(false), false},
		{"false is not NULL", tBool, bl(false), tBool, null, false},
		{"true is 1 in an integer column", tInt, i(1), tBool, bl(true), true},
		{"int arrays", tArray, arr([]int64{1, 2, 3}), tArray, arr([]int64{1, 2, 3}), true},
		{"an int array is not its prefix", tArray, arr([]int64{1, 2, 3}), tArray, arr([]int64{1, 2}), false},
		{"a prefix is not the int array", tArray, arr([]int64{1, 2}), tArray, arr([]int64{1, 2, 3}), false},
		{"the empty int array", tArray, arr([]int64{}), tArray, arr(nil), true},
		{"the empty int array is not NULL", tArray, arr(nil), tArray, null, false},
		{`"" is not NULL`, tString, s(""), tString, null, false},
		{`NULL is not ""`, tString, null, tString, s(""), false},
		{"NULL is itself", tString, null, tString, null, true},
		{"int 5 is float 5.0 after int→float", tInt, i(5), tFloat, f(5), true},
		{"int 5 is not float 5.5 after int→float", tInt, i(5), tFloat, f(5.5), false},
		{"float 5.0 is int 5 in a float column", tFloat, f(5), tInt, i(5), true},
		{"int → string", tInt, i(-42), tString, s(i(-42).AsString()), true},
		{"float → string", tFloat, f(2.5), tString, s(f(2.5).AsString()), true},
		{"bool → string", tBool, bl(true), tString, s(bl(true).AsString()), true},
		{"int array → string", tArray, arr([]int64{1, 2}), tString, s(arr([]int64{1, 2}).AsString()), true},
		{`NULL is not "" after → string`, tInt, null, tString, s(""), false},
		{`int 5 is not "05" after → string`, tInt, i(5), tString, s("05"), false},
		{`int 5 staged against a string column is "5"`, tString, s("5"), tInt, i(5), true},
		{"an empty int array in an integer column stays one after int→float", tInt, arr([]int64{}), tFloat, arr(nil), true},
		{"a string in an integer column is not cast by int→float", tInt, s("x"), tFloat, f(0), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkIdentity(t, tc.colB, tc.b, tc.colA, tc.a); got != tc.same {
				t.Errorf("the reference says %v and %v are the same record: %v, want %v", tc.b, tc.a, got, tc.same)
			}
		})
	}
}

// fuzzValue draws a cell of any type, NULL included, from the fuzzer's input.
func fuzzValue(typ uint8, n int64, x float64, s string) relstore.Value {
	switch typ % 6 {
	case 1:
		return relstore.Int(n)
	case 2:
		return relstore.Float(x)
	case 3:
		return relstore.Str(s)
	case 4:
		return relstore.Bool(n&1 == 1)
	case 5:
		a := make([]int64, len(s)%5)
		for k := range a {
			a[k] = n + int64(s[k])
		}
		return relstore.IntArray(a)
	}
	return relstore.Null()
}

var fuzzColumnTypes = []relstore.ValueType{relstore.TypeInt, relstore.TypeFloat, relstore.TypeString, relstore.TypeBool, relstore.TypeIntArray}

// FuzzRecordIdentity is TestRecordIdentityEdges over any pair of cells and
// column types, a cell wider than its column included: the kernel's verdict,
// its hashes and a commit's reuse against Value.Identical after canonical, and
// the evolution's cast against canonical's.
func FuzzRecordIdentity(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(2), uint8(1), int64(0), int64(0), math.NaN(), math.NaN(), "", "")
	f.Add(uint8(2), uint8(1), uint8(2), uint8(1), int64(0), int64(0), math.Copysign(0, -1), 0.0, "", "")
	f.Add(uint8(3), uint8(2), uint8(0), uint8(2), int64(0), int64(0), 0.0, 0.0, "", "")
	f.Add(uint8(1), uint8(0), uint8(2), uint8(1), int64(5), int64(0), 0.0, 5.0, "", "")
	f.Add(uint8(1), uint8(0), uint8(3), uint8(2), int64(5), int64(0), 0.0, 0.0, "", "5")
	f.Add(uint8(5), uint8(4), uint8(5), uint8(4), int64(1), int64(1), 0.0, 0.0, "abc", "ab")
	f.Add(uint8(4), uint8(3), uint8(4), uint8(3), int64(1), int64(3), 0.0, 0.0, "", "")
	f.Fuzz(func(t *testing.T, tb, cb, ta, ca uint8, nb, na int64, xb, xa float64, sb, sa string) {
		b, a := fuzzValue(tb, nb, xb, sb), fuzzValue(ta, na, xa, sa)
		colB := fuzzColumnTypes[int(cb)%len(fuzzColumnTypes)]
		colA := fuzzColumnTypes[int(ca)%len(fuzzColumnTypes)]
		checkIdentity(t, colB, b, colA, a)
	})
}

// indexBytes returns the heap the record index over a catalog of n records of
// the reference benchmark's shape retains, per record and per chain (content,
// and the primary key's): as the first commit builds it, and after commits add
// grown more records to it.
func indexBytes(t *testing.T, n, grown int) (built, after float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	schema, rows := benchRows(rng, n, 0)
	c, err := Init(relstore.NewDatabase("bytes"), "d", schema, rows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	// dropped is what dropping the index frees, per record and chain.
	dropped := func() float64 {
		with := heap()
		c.index = nil
		return float64(with-heap()) / float64(c.NumRecords()) / 2
	}
	c.index = c.buildIndex(c.schema)
	built = dropped()
	c.index = c.buildIndex(c.schema)
	for v := vgraph.VersionID(1); c.NumRecords() < int64(n+grown); v++ {
		k := min(1000, n+grown-int(c.NumRecords()))
		_, fresh := benchRows(rng, k, int(c.NumRecords()))
		if _, err := c.Commit([]vgraph.VersionID{v}, fresh, schema, "more", "t"); err != nil {
			t.Fatal(err)
		}
	}
	return built, dropped()
}

// TestRecordIndexBytesPerRecord is the index's memory gate (no wall clock): the
// heap it retains per record and chain, as built and after a quarter more
// records, is no more than the bucket-and-chain layout it replaced retained on
// the same catalogs (its figures, measured by this test, go1.24 linux/amd64).
// Near a power of two both layouts come to 16 bytes: 13 000 records grown to
// 16 250 is such a point.
func TestRecordIndexBytesPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the program's")
	}
	for _, tc := range []struct {
		n            int
		built, after float64 // the chained index's figures
	}{
		{13_000, 20.19, 16.15},
		{20_000, 22.13, 17.71},
		{40_000, 21.72, 17.37},
		{64_000, 19.33, 18.74},
	} {
		built, after := indexBytes(t, tc.n, tc.n/4)
		t.Logf("%d records: %.2f B per record and chain as built (chained: %.2f), %.2f after %d more (chained: %.2f)", tc.n, built, tc.built, after, tc.n/4, tc.after)
		if built > tc.built || after > tc.after {
			t.Errorf("%d records: the index retains %.2f B per record and chain as built and %.2f grown, over the chained index's %.2f and %.2f", tc.n, built, after, tc.built, tc.after)
		}
	}
}

// TestUnchangedCommitAllocations: a commit of every row of an unchanged
// version — each row hashed, probed and confirmed against the catalog —
// makes as many allocations at 50 000 rows as at 5 000: none per row or per
// cell. (The version's compressed record set takes one more past 4 096
// records of a 65 536-id chunk, and a few more a chunk; both sizes hold one
// chunk past 4 096.)
func TestUnchangedCommitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	count := func(n int) float64 {
		c, schema, rows := allocCVD(t, n)
		commit := func() {
			if _, err := c.Commit([]vgraph.VersionID{1}, rows, schema, "m", "a"); err != nil {
				t.Fatal(err)
			}
		}
		commit() // builds the record index
		return testing.AllocsPerRun(5, commit)
	}
	small, big := count(5_000), count(50_000)
	t.Logf("an unchanged full-row commit allocates %.0f times at 5 000 rows, %.0f at 50 000", small, big)
	if big > small {
		t.Errorf("an unchanged full-row commit allocates %.0f times at 5 000 rows but %.0f at 50 000", small, big)
	}
}
