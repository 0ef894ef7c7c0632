package durable

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/recset"
	"repro/internal/relstore"
)

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

// TestSchemaRefusesUnknownType: a column type that names no type — 7, or 263,
// which a one-byte ValueType would truncate to an integer — is refused.
func TestSchemaRefusesUnknownType(t *testing.T) {
	for _, typ := range []uint64{7, 263} {
		var e enc
		e.uvarint(1)
		e.str("x")
		e.uvarint(typ)
		e.uvarint(0)
		d := &dec{b: e.b}
		if s := d.schema(); d.err == nil || !strings.Contains(d.err.Error(), "unknown column type") {
			t.Errorf("a column of type %d decodes to %v, %v", typ, s, d.err)
		}
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

// TestRetiredCatalogBandRefused: chunk kind 3, the boxed catalog band of
// manifest version 2, has no decoder left; a pack that hands one back is told
// so by name by whichever decoder it reaches.
func TestRetiredCatalogBandRefused(t *testing.T) {
	var e enc
	e.u8(chunkCatalogBand)
	e.uvarint(1) // one record
	e.uvarint(7) // rid
	e.uvarint(1) // one cell
	e.u8(uint8(relstore.TypeNull))
	_, _, _, colErr := decodeColBand(e.b, relstore.ColumnLanes{}, 0)
	_, headErr := decodeCVDHead(e.b)
	_, runErr := decodeRecsetRun(nil, e.b, fuzzCVDState())
	for what, err := range map[string]error{"column band": colErr, "CVD head": headErr, "record-set run": runErr} {
		if err == nil || !strings.Contains(err.Error(), "retired record-catalog band") {
			t.Errorf("%s decoder on a kind 3 chunk: %v", what, err)
		}
	}
}

// TestRetiredFullSetRunRefused: chunk kind 4, the record-set run of manifest
// version 4 that stored every version's set in full, has no decoder left;
// every decoder a pack can hand one to refuses it by name.
func TestRetiredFullSetRunRefused(t *testing.T) {
	st := fuzzCVDState()
	var e enc
	e.u8(chunkFullSetRun)
	e.uvarint(1)
	e.uvarint(1) // version 1, then its set as version 4 wrote it
	e.b = st.RecordSets[0].Set.AppendBinary(e.b)
	_, _, _, colErr := decodeColBand(e.b, relstore.ColumnLanes{}, 0)
	_, headErr := decodeCVDHead(e.b)
	_, runErr := decodeRecsetRun(nil, e.b, st)
	for what, err := range map[string]error{"column band": colErr, "CVD head": headErr, "record-set run": runErr} {
		if err == nil || !strings.Contains(err.Error(), "retired full-set record-set run of manifest version 4") {
			t.Errorf("%s decoder on a kind 4 chunk: %v", what, err)
		}
	}
}
