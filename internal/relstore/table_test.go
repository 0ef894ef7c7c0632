package relstore

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func proteinSchema() Schema {
	return MustSchema([]Column{
		{Name: "rid", Type: TypeInt},
		{Name: "protein1", Type: TypeString},
		{Name: "protein2", Type: TypeString},
		{Name: "coexpression", Type: TypeInt},
	}, "rid")
}

func newProteinTable(t *testing.T, n int) *Table {
	t.Helper()
	tbl := NewTable("protein", proteinSchema())
	for i := 0; i < n; i++ {
		err := tbl.Insert(Row{Int(int64(i)), Str("P" + string(rune('A'+i%26))), Str("Q"), Int(int64(i * 10))})
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	return tbl
}

func TestTableInsertAndIndex(t *testing.T) {
	tbl := newProteinTable(t, 10)
	if tbl.Len() != 10 {
		t.Fatalf("Len = %d, want 10", tbl.Len())
	}
	if !tbl.HasIndex() {
		t.Fatal("expected index on primary key")
	}
	row, ok := tbl.LookupIndex(Int(7))
	if !ok {
		t.Fatal("LookupIndex(7) not found")
	}
	if row[3].AsInt() != 70 {
		t.Errorf("row[3] = %d, want 70", row[3].AsInt())
	}
	if _, ok := tbl.LookupIndex(Int(99)); ok {
		t.Error("LookupIndex(99) should not be found")
	}
}

func TestTableDuplicateKeyRejected(t *testing.T) {
	tbl := newProteinTable(t, 3)
	err := tbl.Insert(Row{Int(1), Str("X"), Str("Y"), Int(0)})
	if err == nil {
		t.Fatal("expected duplicate key error")
	}
}

func TestTableRowLengthMismatch(t *testing.T) {
	tbl := newProteinTable(t, 1)
	if err := tbl.Insert(Row{Int(5)}); err == nil {
		t.Fatal("expected row length error")
	}
}

func TestTableFilterAndScanStats(t *testing.T) {
	tbl := newProteinTable(t, 20)
	tbl.Stats().Reset()
	rows := tbl.Filter(func(r Row) bool { return r[3].AsInt() >= 100 })
	if len(rows) != 10 {
		t.Errorf("filter returned %d rows, want 10", len(rows))
	}
	if tbl.Stats().SeqReads != 20 {
		t.Errorf("SeqReads = %d, want 20", tbl.Stats().SeqReads)
	}
}

func TestTableUpdateWhere(t *testing.T) {
	tbl := newProteinTable(t, 5)
	n, err := tbl.UpdateWhere(
		func(r Row) bool { return r[0].AsInt()%2 == 0 },
		func(r Row) Row { r[3] = Int(999); return r },
	)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("updated %d rows, want 3", n)
	}
	row, _ := tbl.LookupIndex(Int(2))
	if row[3].AsInt() != 999 {
		t.Errorf("row 2 coexpression = %d, want 999", row[3].AsInt())
	}
	row, _ = tbl.LookupIndex(Int(1))
	if row[3].AsInt() != 10 {
		t.Errorf("row 1 coexpression = %d, want unchanged 10", row[3].AsInt())
	}
}

func TestTableUpdateWhereReindexesOnKeyChange(t *testing.T) {
	tbl := newProteinTable(t, 3)
	_, err := tbl.UpdateWhere(
		func(r Row) bool { return r[0].AsInt() == 2 },
		func(r Row) Row { r[0] = Int(100); return r },
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.LookupIndex(Int(2)); ok {
		t.Error("old key 2 should be gone")
	}
	if _, ok := tbl.LookupIndex(Int(100)); !ok {
		t.Error("new key 100 should be found")
	}
}

func TestTableDeleteWhere(t *testing.T) {
	tbl := newProteinTable(t, 10)
	removed := tbl.DeleteWhere(func(r Row) bool { return r[0].AsInt() < 5 })
	if removed != 5 {
		t.Errorf("removed %d, want 5", removed)
	}
	if tbl.Len() != 5 {
		t.Errorf("Len = %d, want 5", tbl.Len())
	}
	if _, ok := tbl.LookupIndex(Int(3)); ok {
		t.Error("deleted row still in index")
	}
	if _, ok := tbl.LookupIndex(Int(7)); !ok {
		t.Error("surviving row missing from index")
	}
}

func TestTableSortByAndCluster(t *testing.T) {
	tbl := NewTable("t", MustSchema([]Column{{Name: "rid", Type: TypeInt}, {Name: "v", Type: TypeInt}}, "rid"))
	for _, rid := range []int64{5, 3, 9, 1, 7} {
		tbl.MustInsert(Row{Int(rid), Int(rid * 2)})
	}
	if err := tbl.SortBy(ClusterOnRID, "rid"); err != nil {
		t.Fatal(err)
	}
	if tbl.Cluster != ClusterOnRID {
		t.Error("cluster mode not recorded")
	}
	prev := int64(-1)
	for _, r := range tbl.Rows() {
		if r[0].AsInt() < prev {
			t.Fatalf("rows not sorted by rid: %v", tbl.Rows())
		}
		prev = r[0].AsInt()
	}
	// Index still valid after sorting.
	row, ok := tbl.LookupIndex(Int(9))
	if !ok || row[1].AsInt() != 18 {
		t.Error("index broken after SortBy")
	}
}

func TestTableProject(t *testing.T) {
	tbl := newProteinTable(t, 4)
	p, err := tbl.Project("p", "rid", "coexpression")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Schema.Columns) != 2 || p.Len() != 4 {
		t.Fatalf("projection has %d cols, %d rows", len(p.Schema.Columns), p.Len())
	}
	if p.At(2, 1).AsInt() != 20 {
		t.Errorf("projected value = %d, want 20", p.At(2, 1).AsInt())
	}
	if _, err := tbl.Project("p2", "nonexistent"); err == nil {
		t.Error("projecting unknown column should error")
	}
}

func TestTableCloneIsDeep(t *testing.T) {
	tbl := NewTable("t", MustSchema([]Column{{Name: "rid", Type: TypeInt}, {Name: "vlist", Type: TypeIntArray}}, "rid"))
	tbl.MustInsert(Row{Int(1), IntArray([]int64{1, 2})})
	cl := tbl.Clone("t2")
	cl.RowAt(0)[1].A()[0] = 99
	if tbl.At(0, 1).A()[0] == 99 {
		t.Error("Clone shares array storage with original")
	}
	if _, ok := cl.LookupIndex(Int(1)); !ok {
		t.Error("clone lost its index")
	}
}

func TestTableAddColumnAndAlterType(t *testing.T) {
	tbl := newProteinTable(t, 3)
	if err := tbl.AddColumn(Column{Name: "neighborhood", Type: TypeInt}); err != nil {
		t.Fatal(err)
	}
	if len(tbl.RowAt(0)) != 5 || !tbl.At(0, 4).IsNull() {
		t.Error("AddColumn should fill NULLs")
	}
	if err := tbl.AlterColumnType("coexpression", TypeFloat); err != nil {
		t.Fatal(err)
	}
	if tbl.Schema.Columns[3].Type != TypeFloat {
		t.Error("AlterColumnType did not change schema")
	}
	if tbl.At(1, 3).Type != TypeFloat || tbl.At(1, 3).AsFloat() != 10 {
		t.Errorf("value not cast: %v", tbl.At(1, 3))
	}
	if err := tbl.AlterColumnType("missing", TypeInt); err == nil {
		t.Error("altering missing column should error")
	}
}

func TestTableStorageBytes(t *testing.T) {
	tbl := NewTable("t", MustSchema([]Column{{Name: "rid", Type: TypeInt}, {Name: "s", Type: TypeString}}, "rid"))
	tbl.MustInsert(Row{Int(1), Str("abcd")})
	// 8 (int) + 4+4 (string) + 16 (index entry)
	if got := tbl.StorageBytes(); got != 8+8+16 {
		t.Errorf("StorageBytes = %d, want %d", got, 8+8+16)
	}
}

func TestTableTruncate(t *testing.T) {
	tbl := newProteinTable(t, 5)
	tbl.Truncate()
	if tbl.Len() != 0 {
		t.Error("Truncate did not clear rows")
	}
	if _, ok := tbl.LookupIndex(Int(1)); ok {
		t.Error("Truncate did not clear index")
	}
	if err := tbl.Insert(Row{Int(1), Str("a"), Str("b"), Int(1)}); err != nil {
		t.Errorf("insert after truncate: %v", err)
	}
}

func TestBuildIndexOnDuplicate(t *testing.T) {
	tbl := NewTable("t", MustSchema([]Column{{Name: "a", Type: TypeInt}, {Name: "b", Type: TypeInt}}))
	tbl.MustInsert(Row{Int(1), Int(2)})
	tbl.MustInsert(Row{Int(1), Int(3)})
	if err := tbl.BuildIndexOn("a"); err == nil {
		t.Error("BuildIndexOn with duplicates should fail")
	}
	if err := tbl.BuildIndexOn("b"); err != nil {
		t.Errorf("BuildIndexOn(b): %v", err)
	}
}

func TestDatabaseBasics(t *testing.T) {
	db := NewDatabase("orpheus")
	tbl, err := db.CreateTable("data", proteinSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("data", proteinSchema()); err == nil {
		t.Error("duplicate CreateTable should fail")
	}
	tbl.MustInsert(Row{Int(1), Str("a"), Str("b"), Int(5)})
	got, ok := db.Table("data")
	if !ok || got.Len() != 1 {
		t.Fatal("Table lookup failed")
	}
	if !db.HasTable("data") || db.HasTable("nope") {
		t.Error("HasTable wrong")
	}
	if names := db.TableNames(); len(names) != 1 || names[0] != "data" {
		t.Errorf("TableNames = %v", names)
	}
	if db.StorageBytes() == 0 {
		t.Error("StorageBytes should be nonzero")
	}
	if db.Stats().RowsWritten != 1 {
		t.Errorf("database stats not shared: %v", db.Stats())
	}
	db.DropTable("data")
	if db.HasTable("data") {
		t.Error("DropTable failed")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := newProteinTable(t, 4)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(buf.String()), "back", proteinSchema())
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tbl.Len() {
		t.Fatalf("round trip lost rows: %d vs %d", back.Len(), tbl.Len())
	}
	for i := 0; i < tbl.Len(); i++ {
		for j := range tbl.Schema.Columns {
			if !tbl.At(i, j).Equal(back.At(i, j)) {
				t.Errorf("row %d col %d: %v != %v", i, j, tbl.At(i, j), back.At(i, j))
			}
		}
	}
}

func TestReadCSVMissingColumnAndBadValues(t *testing.T) {
	csvText := "rid,protein1\n1,abc\nxyz,def\n"
	tbl, err := ReadCSV(strings.NewReader(csvText), "t", proteinSchema())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tbl.Len())
	}
	if !tbl.At(0, 2).IsNull() {
		t.Error("missing column should be NULL")
	}
	if !tbl.At(1, 0).IsNull() {
		t.Error("unparseable integer should be NULL")
	}
}

// Property: a row survives a Clone + mutate of the original unchanged, i.e.
// Clone is a snapshot.
func TestRowCloneProperty(t *testing.T) {
	f := func(a, b int64) bool {
		r := Row{Int(a), IntArray([]int64{b})}
		c := r.Clone()
		r[0] = Int(a + 1)
		r[1].A()[0] = b + 1
		return c[0].AsInt() == a && c[1].A()[0] == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestNewTableFromLanesRefusesTags: a cell whose type tag names a payload
// lane its column lacks, or no type at all, is refused naming the column, the
// row and the lane or the tag.
func TestNewTableFromLanesRefusesTags(t *testing.T) {
	schema := MustSchema([]Column{{Name: "x", Type: TypeInt}})
	ints := []int64{1, 2, 3}
	for _, tc := range []struct {
		tags []uint8
		ints []int64
		want string
	}{
		{[]uint8{uint8(TypeInt), uint8(TypeNull), uint8(TypeBool)}, ints, ""},
		{[]uint8{uint8(TypeNull), uint8(TypeInt), uint8(TypeInt)}, nil, "column 0 row 1 needs the integer lane"},
		{[]uint8{uint8(TypeInt), uint8(TypeInt), uint8(TypeFloat)}, ints, "column 0 row 2 needs the float lane"},
		{[]uint8{uint8(TypeString), uint8(TypeInt), uint8(TypeInt)}, ints, "column 0 row 0 needs the string lane"},
		{[]uint8{uint8(TypeInt), uint8(TypeIntArray), uint8(TypeInt)}, ints, "column 0 row 1 needs the overflow lane"},
		{[]uint8{uint8(TypeInt), uint8(TypeInt), 200}, ints, "column 0 row 2 has unknown type tag 200"},
	} {
		_, err := NewTableFromLanes("t", schema, ClusterNone, 3, []ColumnLanes{{Tags: tc.tags, Ints: tc.ints}}, nil)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("tags %v: %v, want %q", tc.tags, err, tc.want)
		}
	}
}
