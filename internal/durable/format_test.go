package durable

import (
	"math/rand"
	"testing"

	"repro/internal/cvd"
	"repro/internal/recset"
	"repro/internal/relstore"
)

func TestValueRoundTrip(t *testing.T) {
	vals := []relstore.Value{
		relstore.Null(),
		relstore.Int(0), relstore.Int(-7), relstore.Int(1 << 60),
		relstore.Float(3.25), relstore.Float(-0.0),
		relstore.Str(""), relstore.Str("héllo\x00world"),
		relstore.Bool(true), relstore.Bool(false),
		relstore.IntArray(nil), relstore.IntArray([]int64{1, -2, 3}),
	}
	var e enc
	for _, v := range vals {
		e.value(v)
	}
	d := &dec{b: e.b}
	for i, want := range vals {
		got := d.value()
		if d.err != nil {
			t.Fatalf("value %d: %v", i, d.err)
		}
		if got.Type != want.Type || got.AsString() != want.AsString() {
			t.Fatalf("value %d: got %v (%v), want %v (%v)", i, got, got.Type, want, want.Type)
		}
	}
	if d.off != len(d.b) {
		t.Fatalf("decoder left %d bytes", len(d.b)-d.off)
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	s := relstore.MustSchema([]relstore.Column{
		{Name: "id", Type: relstore.TypeInt},
		{Name: "name", Type: relstore.TypeString},
		{Name: "score", Type: relstore.TypeFloat},
	}, "id", "name")
	var e enc
	e.schema(s)
	d := &dec{b: e.b}
	got := d.schema()
	if d.err != nil {
		t.Fatal(d.err)
	}
	if !got.Equal(s) {
		t.Fatalf("schema round trip: got %v, want %v", got, s)
	}
}

// randomTable builds a table with heterogeneous columns: every lane type,
// nulls sprinkled in, and cells whose type disagrees with the declared column
// type (the columnar layer's escape hatch).
func randomTable(t *testing.T, rng *rand.Rand, name string, nrows int) *relstore.Table {
	t.Helper()
	schema := relstore.MustSchema([]relstore.Column{
		{Name: "rid", Type: relstore.TypeInt},
		{Name: "txt", Type: relstore.TypeString},
		{Name: "val", Type: relstore.TypeFloat},
		{Name: "flag", Type: relstore.TypeBool},
		{Name: "arr", Type: relstore.TypeIntArray},
	}, "rid")
	tab := relstore.NewTable(name, schema)
	for i := 0; i < nrows; i++ {
		row := relstore.Row{
			relstore.Int(int64(i + 1)),
			relstore.Str(""),
			relstore.Float(rng.NormFloat64()),
			relstore.Bool(rng.Intn(2) == 0),
			relstore.IntArray([]int64{rng.Int63n(100), -rng.Int63n(100)}),
		}
		switch rng.Intn(5) {
		case 0:
			row[1] = relstore.Null()
		case 1:
			row[1] = relstore.Int(rng.Int63n(1000)) // stray int in a string column
		default:
			row[1] = relstore.Str(string(rune('a' + rng.Intn(26))))
		}
		if rng.Intn(4) == 0 {
			row[2] = relstore.Null()
		}
		if rng.Intn(6) == 0 {
			row[4] = relstore.Null()
		}
		if err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func tablesEqual(t *testing.T, a, b *relstore.Table) {
	t.Helper()
	if a.Name != b.Name {
		t.Fatalf("table name %q != %q", a.Name, b.Name)
	}
	if !a.Schema.Equal(b.Schema) {
		t.Fatalf("table %s: schema %v != %v", a.Name, a.Schema, b.Schema)
	}
	if a.Cluster != b.Cluster {
		t.Fatalf("table %s: cluster %v != %v", a.Name, a.Cluster, b.Cluster)
	}
	if a.Len() != b.Len() {
		t.Fatalf("table %s: %d rows != %d rows", a.Name, a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		ra, rb := a.RowAt(i), b.RowAt(i)
		for j := range ra {
			va, vb := ra[j], rb[j]
			if va.Type != vb.Type || va.AsString() != vb.AsString() {
				t.Fatalf("table %s row %d col %d: %v (%v) != %v (%v)", a.Name, i, j, va, va.Type, vb, vb.Type)
			}
		}
	}
}

func TestTableBandChunkRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 63, 500} {
		for _, raw := range []bool{false, true} {
			tab := randomTable(t, rng, "tab", n)
			meta := metaForTable(tab)
			// A small band height forces multi-band assembly even for the
			// modest row counts above.
			meta.bandRows = 64
			asm := newTableAssembler(meta)
			var e enc
			for ci := range meta.schema.Columns {
				lanes := tab.ColumnLanes(ci)
				for b := 0; b < numBands(meta.nrows, meta.bandRows); b++ {
					lo, hi := bandSpan(b, meta.bandRows, meta.nrows)
					e.b = e.b[:0]
					encodeColBand(&e, lanes, lo, hi, raw)
					if err := asm.addBand(ci, e.b); err != nil {
						t.Fatalf("n=%d raw=%v: %v", n, raw, err)
					}
				}
			}
			got, err := asm.finish()
			if err != nil {
				t.Fatalf("n=%d raw=%v: %v", n, raw, err)
			}
			tablesEqual(t, tab, got)
			if tab.HasIndex() != got.HasIndex() {
				t.Fatalf("n=%d raw=%v: index presence diverged", n, raw)
			}
		}
	}
}

func TestRecsetBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sets := []*recset.Set{
		nil,
		recset.New(),
		recset.FromSlice([]int64{1, 2, 3, 1 << 40}),
	}
	// A dense run that forces bitmap containers plus a sparse spread.
	dense := make([]int64, 0, 10000)
	for i := int64(0); i < 10000; i++ {
		dense = append(dense, i)
	}
	sets = append(sets, recset.FromSlice(dense))
	sparse := make([]int64, 0, 5000)
	for i := 0; i < 5000; i++ {
		sparse = append(sparse, rng.Int63n(1<<30))
	}
	sets = append(sets, recset.FromSlice(sparse))

	for i, s := range sets {
		b := s.AppendBinary(nil)
		got, n, err := recset.DecodeBinary(b)
		if err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		if n != len(b) {
			t.Fatalf("set %d: consumed %d of %d bytes", i, n, len(b))
		}
		if got.Len() != s.Len() || !recset.Equal(got, orEmpty(s)) {
			t.Fatalf("set %d: round trip mismatch (%d vs %d elements)", i, got.Len(), s.Len())
		}
	}
}

func orEmpty(s *recset.Set) *recset.Set {
	if s == nil {
		return recset.New()
	}
	return s
}

// TestCatalogBandRows pins what the per-band row slab must not change: rows of
// different widths in one band (a schema that evolved inside it) decode to
// independent rows — appending to one cannot reach the next — and a row width
// that overstates the payload is an error, not a slice out of bounds.
func TestCatalogBandRows(t *testing.T) {
	recs := []cvd.PersistedRecord{
		{RID: 1, Row: relstore.Row{relstore.Int(10), relstore.Str("a")}},
		{RID: 2, Row: relstore.Row{relstore.Int(20), relstore.Str("b")}},
		{RID: 3, Row: relstore.Row{relstore.Int(30), relstore.Str("c"), relstore.Float(1.5)}},
		{RID: 4, Row: relstore.Row{}},
		{RID: 5, Row: relstore.Row{relstore.Int(50)}},
	}
	var e enc
	encodeCatalogBand(&e, recs)
	got, err := decodeCatalogBand(nil, e.b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("%d records, want %d", len(got), len(recs))
	}
	for i, want := range recs {
		if got[i].RID != want.RID || len(got[i].Row) != len(want.Row) {
			t.Fatalf("record %d: rid %d width %d, want rid %d width %d", i, got[i].RID, len(got[i].Row), want.RID, len(want.Row))
		}
		for j := range want.Row {
			if got[i].Row[j].Type != want.Row[j].Type || got[i].Row[j].AsString() != want.Row[j].AsString() {
				t.Fatalf("record %d cell %d: %v, want %v", i, j, got[i].Row[j], want.Row[j])
			}
		}
	}
	_ = append(got[0].Row, relstore.Int(99))
	if got[1].Row[0].I != 20 {
		t.Fatalf("append to row 0 reached row 1: %v", got[1].Row[0])
	}

	var bad enc
	bad.u8(chunkCatalogBand)
	bad.uvarint(1) // one record
	bad.uvarint(7) // rid
	bad.uvarint(2) // two cells claimed, one byte follows
	bad.u8(uint8(relstore.TypeNull))
	if _, err := decodeCatalogBand(nil, bad.b); err == nil {
		t.Fatal("overstated row width decoded")
	}
}
