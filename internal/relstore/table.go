package relstore

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/recset"
)

// Row is a single tuple; values are positionally aligned with the table's
// schema. Since the columnar rewrite a Row is a materialized view: tables
// store typed column vectors (see column.go) and produce Rows on demand
// (RowAt, Scan, Rows). Materialized rows share integer-array element slices
// with the column storage, so the long-standing discipline still applies:
// never write through a Row obtained from a table; Clone it first or replace
// the cell with Set.
type Row []Value

// Clone returns a deep copy of the row (array values are copied too).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	for i, v := range out {
		if v.Type == TypeIntArray {
			out[i] = IntArray(slices.Clone(v.A()))
		}
	}
	return out
}

// Identical reports whether two rows are as wide and their cells pairwise
// Value.Identical: the row equality to test with, since reflect.DeepEqual
// would compare where a string or an array cell points, not what it holds.
func (r Row) Identical(o Row) bool { return slices.EqualFunc(r, o, Value.Identical) }

// StorageBytes returns the accounted storage footprint of the row.
func (r Row) StorageBytes() int64 {
	var n int64
	for _, v := range r {
		n += v.StorageBytes()
	}
	return n
}

// ClusterMode describes the physical ordering of a table, which influences
// which join strategies degrade to random I/O (Section 5.5.5).
type ClusterMode int

const (
	// ClusterNone means rows are kept in insertion order.
	ClusterNone ClusterMode = iota
	// ClusterOnRID means rows are kept ordered by the rid column.
	ClusterOnRID
	// ClusterOnPK means rows are kept ordered by the relation primary key.
	ClusterOnPK
)

// Table is an in-memory relation stored column-major: one typed vector per
// attribute plus a per-cell type/null tag vector (column.go), with an
// optional unique index over row positions.
//
// Columns may share their backing vectors with other tables: a checkout's
// staging table reads the lanes of the table it was selected from through
// the version's positions (view columns, see GatherInto), and every mutating
// path gives the column it touches lanes of its own first — copy-on-write per
// column, replacing the per-row sharing the engine used before the columnar
// layout. Code outside
// this package must follow the matching read discipline: never write through
// a Row obtained from a table; use Set / UpdateWhere / Insert instead.
type Table struct {
	Name    string
	Schema  Schema
	Cluster ClusterMode

	cols  []*column
	nrows int

	// The unique index over indexCols (typically the primary key, or rid for
	// data tables) lives in exactly one of two stores: intIndex when the
	// index is a single integer column (the rid hot path — no string
	// encoding per probe), uniqueIndex (encoded string keys) otherwise.
	//
	// Rows [0, intSorted) of an integer index are not entered in intIndex:
	// their keys ascend strictly, and intPos finds them by binary search over
	// the column itself. A data table read back from a checkpoint is
	// rid-ordered, so BuildIndexOn indexes it for one pass over a lane instead
	// of a map entry per row; a checkout's staging table is rid-ordered by
	// construction, and the join that selects it indexes it with no pass at
	// all (indexAscending); and Insert extends the run while the keys it
	// appends keep ascending, so a live record catalog holds no map entry
	// either.
	indexCols   []int
	uniqueIndex map[string]int
	intIndex    map[int64]int
	intSorted   int

	// dirty is the set of row positions written since the table was
	// materialized (or last MarkClean), one bit per row; nil until the first
	// write, so a table nobody wrote to carries nothing. See DirtyRows.
	dirty []uint64

	stats *CostStats
}

// NewTable creates an empty table with the given schema. If the schema has a
// primary key, a unique index is built on it.
func NewTable(name string, schema Schema) *Table {
	t := &Table{Name: name, Schema: schema, stats: &CostStats{}}
	t.cols = make([]*column, len(schema.Columns))
	for i := range t.cols {
		t.cols[i] = newColumn(0)
	}
	if pk := schema.PrimaryKeyIndexes(); len(pk) > 0 {
		t.resetIndexStores(pk)
	}
	return t
}

// resetIndexStores points the index at the given columns and selects the
// store: an int64-keyed map for a single integer column, string keys
// otherwise.
func (t *Table) resetIndexStores(idx []int) {
	t.indexCols = idx
	t.uniqueIndex = nil
	t.intIndex = nil
	t.intSorted = 0
	if len(idx) == 1 && t.Schema.Columns[idx[0]].Type == TypeInt {
		t.intIndex = make(map[int64]int)
	} else {
		t.uniqueIndex = make(map[string]int)
	}
}

// SetStats attaches a shared cost-statistics collector (used by Database so
// every table in the database reports into one place).
func (t *Table) SetStats(s *CostStats) {
	if s != nil {
		t.stats = s
	}
}

// Stats returns the cost statistics collector for this table.
func (t *Table) Stats() *CostStats { return t.stats }

// Len returns the number of rows.
func (t *Table) Len() int { return t.nrows }

// RowAt materializes row i as a fresh Row view over the column vectors.
func (t *Table) RowAt(i int) Row {
	out := make(Row, len(t.cols))
	for j, c := range t.cols {
		out[j] = c.value(i)
	}
	return out
}

// Rows materializes every row. It exists for whole-table consumers (CSV
// export, tests, commit staging); scan-shaped code should use Scan, At, or
// the vectorized operators instead of materializing the table.
func (t *Table) Rows() []Row {
	out := make([]Row, t.nrows)
	for i := range out {
		out[i] = t.RowAt(i)
	}
	return out
}

// At returns the value of one cell without materializing its row.
func (t *Table) At(row, col int) Value { return t.cols[col].value(row) }

// IntAt returns one cell as an int64 (Value.AsInt semantics) without
// materializing the Value — the rid-probe hot path.
func (t *Table) IntAt(row, col int) int64 { return t.cols[col].asInt(row) }

// StringAt returns one cell's string rendering (Value.AsString semantics)
// without materializing the Value.
func (t *Table) StringAt(row, col int) string { return t.cols[col].asString(row) }

// Set overwrites one cell, copying the column's backing first when it is
// shared with another table. Set does not maintain the unique index; callers
// that change indexed columns must rebuild with BuildIndexOn (UpdateWhere
// does this automatically).
func (t *Table) Set(row, col int, v Value) {
	t.cols[col].ensureOwned()
	t.cols[col].set(row, v)
	t.markDirty(row, row+1)
}

// DirtyRows returns, ascending, the positions of the rows written since the
// table was materialized — created, gathered out of another table, or last
// passed to MarkClean — and nil when there are none. Every mutator keeps the
// set: Set, UpdateWhere and AlterColumnType mark the rows they rewrite,
// Insert, AppendRow, InsertBatch and AppendFrom the rows they add, and
// DeleteWhere, Shrink and SortBy move the marks with the rows. AddColumn marks
// nothing: it changes no existing cell. A commit uses the set to resolve only
// the rows a checkout's user touched (cvd.CommitTable).
func (t *Table) DirtyRows() Selection {
	var out Selection
	for w, word := range t.dirty {
		for ; word != 0; word &= word - 1 {
			out = append(out, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// MarkClean forgets every mark: the table's rows, as they are now, become
// what DirtyRows measures writes against. Checkout calls it on the staging
// table it hands out.
func (t *Table) MarkClean() { t.dirty = nil }

// markDirty marks rows [lo, hi).
func (t *Table) markDirty(lo, hi int) {
	if hi <= lo {
		return
	}
	if need := (hi + 63) >> 6; need > len(t.dirty) {
		t.dirty = append(t.dirty, make([]uint64, need-len(t.dirty))...)
	}
	for p := lo; p < hi; p++ {
		t.dirty[p>>6] |= 1 << (p & 63)
	}
}

// remapDirty moves the marks with the rows after the table was regathered
// through sel: new row k is old row sel[k].
func (t *Table) remapDirty(sel Selection) {
	if t.dirty == nil {
		return
	}
	old := t.dirty
	t.dirty = make([]uint64, (len(sel)+63)>>6)
	for k, p := range sel {
		if w := int(p) >> 6; w < len(old) && old[w]&(1<<(p&63)) != 0 {
			t.dirty[k>>6] |= 1 << (k & 63)
		}
	}
}

// SharedColumns reports how many of the table's columns currently share
// backing vectors with another table — a diagnostic for pinning the
// copy-on-write boundary in tests. A column that only backs views (View) is
// not counted: appending to it copies nothing.
func (t *Table) SharedColumns() int {
	n := 0
	for _, c := range t.cols {
		if c.isShared() {
			n++
		}
	}
	return n
}

// BuildIndexOn (re)builds the unique index on the named columns, replacing
// any existing index. It returns an error on duplicate keys.
func (t *Table) BuildIndexOn(cols ...string) error {
	idx := make([]int, 0, len(cols))
	for _, c := range cols {
		i := t.Schema.ColumnIndex(c)
		if i < 0 {
			return fmt.Errorf("relstore: table %s: no column %q to index", t.Name, c)
		}
		idx = append(idx, i)
	}
	if len(idx) == 1 && t.Schema.Columns[idx[0]].Type == TypeInt {
		col := t.cols[idx[0]]
		sorted := 0
		for prev := int64(0); sorted < t.nrows; sorted++ { // each key read once
			key := col.asInt(sorted)
			if sorted > 0 && key <= prev {
				break
			}
			prev = key
		}
		uniq := make(map[int64]int, t.nrows-sorted)
		for pos := sorted; pos < t.nrows; pos++ {
			k := col.asInt(pos)
			prev, dup := uniq[k]
			if !dup {
				prev, dup = searchInts(col, sorted, k)
			}
			if dup {
				return fmt.Errorf("relstore: table %s: duplicate index key %d at rows %d and %d", t.Name, k, prev, pos)
			}
			uniq[k] = pos
		}
		t.indexCols = idx
		t.intIndex, t.intSorted = uniq, sorted
		t.uniqueIndex = nil
		return nil
	}
	uniq := make(map[string]int, t.nrows)
	for pos := 0; pos < t.nrows; pos++ {
		k := t.encodeKeyAt(pos, idx)
		if prev, dup := uniq[k]; dup {
			return fmt.Errorf("relstore: table %s: duplicate index key %q at rows %d and %d", t.Name, k, prev, pos)
		}
		uniq[k] = pos
	}
	t.indexCols = idx
	t.uniqueIndex = uniq
	t.intIndex, t.intSorted = nil, 0
	return nil
}

// indexAscending makes column ci, an integer column whose keys the caller knows
// to ascend strictly, the table's unique index: what BuildIndexOn builds for
// such keys, every row in the sorted run and none in the map, without reading
// a key.
func (t *Table) indexAscending(ci int) {
	t.indexCols = []int{ci}
	t.intIndex, t.intSorted = make(map[int64]int), t.nrows
	t.uniqueIndex = nil
}

// searchInts finds key among the first n cells of col, whose integer values
// ascend.
func searchInts(col *column, n int, key int64) (pos int, found bool) {
	return sort.Find(n, func(i int) int { return cmp.Compare(key, col.asInt(i)) })
}

// intPos looks key up in the integer index (t.intIndex != nil). A key within
// the column's rid run is at row key-1 with no search: a record catalog's run
// covers every row, so its rid lookup is one comparison. An index that a
// failed rebuild left stale may answer wrongly, as a stale map does, but never
// reads past the rows.
func (t *Table) intPos(key int64) (pos int, found bool) {
	col := t.cols[t.indexCols[0]]
	if key >= 1 && key <= int64(min(col.run, t.nrows)) {
		return int(key - 1), true
	}
	if pos, found = searchInts(col, min(t.intSorted, t.nrows), key); found {
		return pos, true
	}
	pos, found = t.intIndex[key]
	return pos, found
}

// RIDRun returns how many leading rows the named column is known to hold
// their rids in — rows [0, n) hold the integers 1..n — and 0 for a column the
// table does not have. It is the column's run (see column.go): a conservative
// count, which a record catalog keeps at every row, and which a join or a
// select of a record set it covers trusts instead of reading a rid.
func (t *Table) RIDRun(col string) int {
	if ci := t.Schema.ColumnIndex(col); ci >= 0 {
		return t.cols[ci].run
	}
	return 0
}

// HasIndex reports whether the table currently has a unique index.
func (t *Table) HasIndex() bool { return t.uniqueIndex != nil || t.intIndex != nil }

// IndexColumns returns the names of the indexed columns (nil if no index).
func (t *Table) IndexColumns() []string {
	if t.indexCols == nil {
		return nil
	}
	names := make([]string, len(t.indexCols))
	for i, c := range t.indexCols {
		names[i] = t.Schema.Columns[c].Name
	}
	return names
}

func encodeKey(r Row, cols []int) string {
	var b strings.Builder
	size := len(cols)
	for _, c := range cols {
		if c < len(r) {
			if r[c].Type == TypeString {
				size += len(r[c].S())
			} else {
				size += 20
			}
		}
	}
	b.Grow(size)
	for i, c := range cols {
		if i > 0 {
			b.WriteByte('\x00')
		}
		if c < len(r) {
			b.WriteString(r[c].AsString())
		}
	}
	return b.String()
}

// encodeKeyAt is encodeKey straight off the column vectors.
func (t *Table) encodeKeyAt(pos int, cols []int) string {
	var b strings.Builder
	size := len(cols)
	for _, c := range cols {
		if c < len(t.cols) {
			if col, p := t.cols[c], t.cols[c].cell(pos); ValueType(col.tags[p]) == TypeString {
				size += len(col.strs[p])
			} else {
				size += 20
			}
		}
	}
	b.Grow(size)
	for i, c := range cols {
		if i > 0 {
			b.WriteByte('\x00')
		}
		if c < len(t.cols) {
			b.WriteString(t.cols[c].asString(pos))
		}
	}
	return b.String()
}

// Insert appends a row, maintaining the unique index if present. The row
// length must match the schema.
func (t *Table) Insert(r Row) error {
	if len(r) != len(t.Schema.Columns) {
		return fmt.Errorf("relstore: table %s: row has %d values, schema has %d columns", t.Name, len(r), len(t.Schema.Columns))
	}
	if t.intIndex != nil {
		k := r[t.indexCols[0]].AsInt()
		if t.extendsSortedRun(k) {
			t.intSorted++
		} else if _, dup := t.intPos(k); dup {
			return fmt.Errorf("relstore: table %s: duplicate key %d", t.Name, k)
		} else {
			t.intIndex[k] = t.nrows
		}
	} else if t.uniqueIndex != nil {
		k := encodeKey(r, t.indexCols)
		if _, dup := t.uniqueIndex[k]; dup {
			return fmt.Errorf("relstore: table %s: duplicate key %q", t.Name, k)
		}
		t.uniqueIndex[k] = t.nrows
	}
	t.appendRow(r)
	t.stats.AddRowsWritten(1)
	return nil
}

// extendsSortedRun reports whether a row appended with integer index key k
// stays in the index's sorted run: the run reaches the last row, no key is
// in the map, and k is above the last key. Such a row needs no map entry, so
// a table filled in ascending key order — a record catalog — holds none.
func (t *Table) extendsSortedRun(k int64) bool {
	if t.intSorted != t.nrows || len(t.intIndex) != 0 {
		return false
	}
	return t.nrows == 0 || k > t.cols[t.indexCols[0]].asInt(t.nrows-1)
}

// appendRow scatters a row into the column vectors without touching the
// index or the cost counters.
func (t *Table) appendRow(r Row) {
	for j, c := range t.cols {
		c.ensureAppendable()
		if j < len(r) {
			c.append(r[j])
		} else {
			c.append(Null())
		}
	}
	t.markDirty(t.nrows, t.nrows+1)
	t.nrows++
}

// AppendRow appends a row without index maintenance (the bulk path staging
// and test code used to reach by appending to the Rows field directly).
// Rows shorter than the schema are padded with NULL. The unique index, if
// any, goes stale; rebuild it with BuildIndexOn when needed.
func (t *Table) AppendRow(r Row) {
	if len(r) > len(t.Schema.Columns) {
		r = r[:len(t.Schema.Columns)]
	}
	t.appendRow(r)
}

// MustInsert inserts and panics on error; for tests and generators.
func (t *Table) MustInsert(r Row) {
	if err := t.Insert(r); err != nil {
		panic(err)
	}
}

// InsertBatch appends many rows, maintaining the index. The column vectors
// are grown once up front instead of per row.
func (t *Table) InsertBatch(rows []Row) error {
	for _, c := range t.cols {
		c.ensureAppendable()
		c.reserve(len(rows))
	}
	for _, r := range rows {
		if err := t.Insert(r); err != nil {
			return err
		}
	}
	return nil
}

// IndexEntryBytes is what the storage accounting model charges an indexed
// row, approximating a hash/btree entry.
const IndexEntryBytes = 16

// StorageBytes returns the accounted size of the table including its index
// (IndexEntryBytes per indexed row).
func (t *Table) StorageBytes() int64 {
	var n int64
	for _, c := range t.cols {
		n += c.storageBytes()
	}
	if t.uniqueIndex != nil {
		n += int64(len(t.uniqueIndex)) * IndexEntryBytes
	}
	if t.intIndex != nil {
		n += int64(len(t.intIndex)+t.intSorted) * IndexEntryBytes
	}
	return n
}

// LookupIndex returns the row whose indexed columns equal key values, using
// the unique index (a random access in the cost model).
func (t *Table) LookupIndex(key ...Value) (Row, bool) {
	if t.intIndex != nil {
		if len(key) != 1 {
			return nil, false
		}
		pos, ok := t.intPos(key[0].AsInt())
		if !ok {
			return nil, false
		}
		t.stats.AddRandomReads(1)
		return t.RowAt(pos), true
	}
	if t.uniqueIndex == nil {
		return nil, false
	}
	var b strings.Builder
	for i, v := range key {
		if i > 0 {
			b.WriteByte('\x00')
		}
		b.WriteString(v.AsString())
	}
	pos, ok := t.uniqueIndex[b.String()]
	if !ok {
		return nil, false
	}
	t.stats.AddRandomReads(1)
	return t.RowAt(pos), true
}

// Scan iterates all rows (sequential reads in the cost model), invoking fn
// for each; if fn returns false the scan stops early. Each row is
// materialized fresh from the column vectors, so callbacks may retain it.
// The read counter is accumulated locally and added once, so concurrent
// scans of shared tables do not contend on the shared statistics collector.
func (t *Table) Scan(fn func(pos int, r Row) bool) {
	read := int64(0)
	for i := 0; i < t.nrows; i++ {
		read++
		if !fn(i, t.RowAt(i)) {
			break
		}
	}
	t.stats.AddSeqReads(read)
}

// Filter returns all rows satisfying pred (a full sequential scan). For
// column-comparison predicates, FilterVec evaluates without materializing
// rows and is much faster.
func (t *Table) Filter(pred func(Row) bool) []Row {
	out := make([]Row, 0, t.nrows/4+1)
	t.Scan(func(_ int, r Row) bool {
		if pred(r) {
			out = append(out, r)
		}
		return true
	})
	return out
}

// FilterVec evaluates `col op value` over the whole column vector into a
// selection vector, without materializing any row. The comparison semantics
// are exactly Value.Compare's — NULL sorts before everything, integers and
// booleans compare exactly as int64, an integer against a float as float64,
// otherwise the string renderings compare — so the result always matches the
// row-at-a-time Filter over the same predicate. A numeric value compares
// straight against the column's typed lane.
func (t *Table) FilterVec(col string, op CmpOp, value Value) (Selection, error) {
	ci := t.Schema.ColumnIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("relstore: table %s has no column %q", t.Name, col)
	}
	sel := t.cols[ci].filter(op, value, nil)
	t.stats.AddSeqReads(int64(t.nrows))
	return sel, nil
}

// FilterVecAll is the compiled multi-predicate form over the whole table: the
// first comparison scans its whole column, and each subsequent comparison
// refines the surviving selection, touching only the rows still alive. It
// costs the table; FilterVecSet is the same refinement over the rows a record
// set names, and costs the set.
func (t *Table) FilterVecAll(preds []ColPred) (Selection, error) {
	if len(preds) == 0 {
		sel := make(Selection, t.nrows)
		for i := range sel {
			sel[i] = int32(i)
		}
		t.stats.AddSeqReads(int64(t.nrows))
		return sel, nil
	}
	var sel Selection
	for k, p := range preds {
		ci := t.Schema.ColumnIndex(p.Col)
		if ci < 0 {
			return nil, fmt.Errorf("relstore: table %s has no column %q", t.Name, p.Col)
		}
		if k == 0 {
			sel = t.cols[ci].filter(p.Op, p.Value, nil)
			t.stats.AddSeqReads(int64(t.nrows))
		} else {
			t.stats.AddSeqReads(int64(len(sel)))
			sel = t.cols[ci].filter(p.Op, p.Value, sel)
		}
		if len(sel) == 0 {
			break
		}
	}
	return sel, nil
}

// selectBlock is how many positions FilterVecSet walks out of a record set
// before it refines them: a limit stops the walk within one block of being
// met, and a block amortizes each comparison's set-up.
const selectBlock = 1024

// FilterVecSet is FilterVecAll over the rows a record set names, in a table
// whose first column is the rid and whose row r-1 holds rid r — a record
// catalog, whose rids are handed out densely from 1. It walks the set's
// containers straight into blocks of positions, refines each block with preds
// in order and appends the survivors, ascending, to dst until dst holds limit
// positions (limit <= 0: no limit). It reads the rows it walks, and for each
// comparison after the first the rows still alive, never the rest of the
// table. When the rid column's run covers the set (see column.go), as a
// catalog's does, it walks the set unchecked; otherwise it checks each rid it
// walks against its row and refuses the first one that is not there (a table
// in another order, a rid past the table), handing dst back as it came.
func (t *Table) FilterVecSet(dst Selection, set *recset.Set, preds []ColPred, limit int) (Selection, error) {
	cols := make([]*column, len(preds))
	for k, p := range preds {
		ci := t.Schema.ColumnIndex(p.Col)
		if ci < 0 {
			return dst, fmt.Errorf("relstore: table %s has no column %q", t.Name, p.Col)
		}
		cols[k] = t.cols[ci]
	}
	if limit > 0 && len(dst) >= limit {
		return dst, nil
	}
	given := len(dst)
	checked := len(t.cols) == 0 || !t.cols[0].holdsRIDs(set)
	if low, ok := set.Min(); checked && ok {
		// Past the table, a rid would not even fit a position.
		if high, _ := set.Max(); low < 1 || high > int64(t.nrows) {
			return dst, fmt.Errorf("relstore: table %s: record set spans rids %d..%d, past the table's %d rows", t.Name, low, high, t.nrows)
		}
	}
	var refused error
	block := make(Selection, 0, selectBlock)
	// flush refines the block into dst and reports whether dst has room left.
	flush := func() bool {
		if checked {
			for _, p := range block {
				if !t.holdsRID(int64(p) + 1) {
					refused = fmt.Errorf("relstore: table %s: rid %d is not at row %d", t.Name, p+1, p)
					return false
				}
			}
		}
		t.stats.AddSeqReads(int64(len(block)))
		sel := block
		for k, p := range preds {
			if k > 0 {
				t.stats.AddSeqReads(int64(len(sel)))
			}
			if sel = cols[k].filter(p.Op, p.Value, sel); len(sel) == 0 {
				break
			}
		}
		if limit > 0 {
			sel = sel[:min(len(sel), limit-len(dst))]
		}
		dst, block = append(dst, sel...), block[:0]
		return limit <= 0 || len(dst) < limit
	}
	set.Containers(func(base int64, lows []uint16, bitmap []uint64) bool {
		first := int32(base - 1)
		for _, lo := range lows {
			if block = append(block, first+int32(lo)); len(block) == selectBlock && !flush() {
				return false
			}
		}
		for w, word := range bitmap {
			for ; word != 0; word &= word - 1 {
				if block = append(block, first+int32(w<<6|bits.TrailingZeros64(word))); len(block) == selectBlock && !flush() {
					return false
				}
			}
		}
		return true
	})
	if len(block) > 0 && refused == nil {
		flush()
	}
	if refused != nil {
		return dst[:given], refused
	}
	return dst, nil
}

// holdsRID reports whether row r-1 holds rid r in the table's first column, as
// in a record catalog: the check FilterVecSet makes of each rid it walks when
// the column's run does not vouch for them.
func (t *Table) holdsRID(r int64) bool {
	if r < 1 || r > int64(t.nrows) || len(t.cols) == 0 {
		return false
	}
	c := t.cols[0]
	p := c.cell(int(r - 1))
	return ValueType(c.tags[p]) == TypeInt && c.ints[p] == r
}

// RowBlock materializes columns from.. of the selected rows into one block of
// width cells a row: row k is block[k*width:(k+1)*width]. It is GatherRows for
// a caller that wants an answer's rows in one allocation rather than one each,
// and without its leading columns (a catalog's rid).
//
// It is the box kernel: it walks the answer row by row and writes each cell
// field by field into the freshly zeroed block (column.box), so a scalar cell
// stores no pointer and needs no write barrier, and a column that knows every
// cell's tag (column.uniform) boxes without reading its tag lane.
func (t *Table) RowBlock(sel Selection, from int) (block []Value, width int) {
	cols := t.cols[from:]
	width = len(cols)
	block = make([]Value, len(sel)*width)
	for k, i := range sel {
		row := block[k*width : (k+1)*width]
		for j, c := range cols {
			c.box(&row[j], int(i))
		}
	}
	return block, width
}

// GatherRows materializes the selected rows (the bridge from a selection
// vector back to the row-shaped APIs).
func (t *Table) GatherRows(sel Selection) []Row {
	out := make([]Row, len(sel))
	for k, i := range sel {
		out[k] = t.RowAt(int(i))
	}
	return out
}

// GatherInts returns Value.AsInt of the named column at the selected
// positions (used to turn a selection into a rid list).
func (t *Table) GatherInts(col string, sel Selection) ([]int64, error) {
	ci := t.Schema.ColumnIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("relstore: table %s has no column %q", t.Name, col)
	}
	out := make([]int64, len(sel))
	for k, i := range sel {
		out[k] = t.cols[ci].asInt(int(i))
	}
	return out, nil
}

// GatherInto builds a new table holding the selected rows without copying a
// cell: each of its columns is a view column that reads the receiver's lanes
// through the positions sel, composed with the receiver's own where its
// column is a view already, and the receiver's columns are marked viewed, as
// View marks them. The new table adopts sel as the position vector its
// columns share: the caller hands it over, or passes a clone. A column of it
// gathers its cells into lanes of its own the first time it is written (see
// column.go), and reads never write it. The new table carries the receiver's
// schema and stats collector but no index; callers build one as needed.
func (t *Table) GatherInto(name string, sel Selection) *Table {
	out := &Table{Name: name, Schema: t.Schema.Clone(), Cluster: t.Cluster, stats: t.stats}
	out.nrows = len(sel)
	out.cols = make([]*column, len(t.cols))
	if sel == nil {
		sel = Selection{} // a column without positions is no view
	}
	pos := composer{sel: sel}
	for j, c := range t.cols {
		out.cols[j] = c.viewThrough(pos.lanes(c))
	}
	return out
}

// composer maps a selection of cells to lane positions, column by column: a
// view column's positions are composed with it, once per position vector, so
// that sibling columns sharing one vector share the composition as well; any
// other column's lane positions are the selection itself.
type composer struct {
	sel      Selection
	from, to []int32 // the last vector composed, and the composition
}

func (m *composer) lanes(c *column) Selection {
	if c.at == nil {
		return m.sel
	}
	if m.to != nil && len(m.from) == len(c.at) && (len(c.at) == 0 || &m.from[0] == &c.at[0]) {
		return m.to
	}
	m.from, m.to = c.at, make([]int32, len(m.sel))
	for k, i := range m.sel {
		m.to[k] = c.at[i]
	}
	return m.to
}

// AppendFrom appends the selected rows of src column-wise, maintaining the
// unique index. src may have fewer columns than t (missing cells become
// NULL, the transient width mismatch around schema evolution); more is an
// error.
func (t *Table) AppendFrom(src *Table, sel Selection) error {
	if len(src.cols) > len(t.cols) {
		return fmt.Errorf("relstore: table %s: cannot append %d-column rows from %s into %d columns", t.Name, len(src.cols), src.Name, len(t.cols))
	}
	// Validate every index key before registering any, so a duplicate-key
	// error leaves the index untouched (registering as we go would strand
	// phantom entries pointing past the end of the table).
	if t.intIndex != nil {
		ci := t.indexCols[0]
		if ci >= len(src.cols) {
			return fmt.Errorf("relstore: table %s: source %s lacks indexed column %d", t.Name, src.Name, ci)
		}
		keys := make([]int64, len(sel))
		seen := make(map[int64]struct{}, len(sel))
		for k, i := range sel {
			key := src.cols[ci].asInt(int(i))
			if _, dup := t.intPos(key); dup {
				return fmt.Errorf("relstore: table %s: duplicate key %d", t.Name, key)
			}
			if _, dup := seen[key]; dup {
				return fmt.Errorf("relstore: table %s: duplicate key %d", t.Name, key)
			}
			seen[key] = struct{}{}
			keys[k] = key
		}
		for k, key := range keys {
			t.intIndex[key] = t.nrows + k
		}
	} else if t.uniqueIndex != nil {
		keys := make([]string, len(sel))
		seen := make(map[string]struct{}, len(sel))
		for k, i := range sel {
			key := src.encodeKeyAt(int(i), t.indexCols)
			if _, dup := t.uniqueIndex[key]; dup {
				return fmt.Errorf("relstore: table %s: duplicate key %q", t.Name, key)
			}
			if _, dup := seen[key]; dup {
				return fmt.Errorf("relstore: table %s: duplicate key %q", t.Name, key)
			}
			seen[key] = struct{}{}
			keys[k] = key
		}
		for k, key := range keys {
			t.uniqueIndex[key] = t.nrows + k
		}
	}
	pos := composer{sel: sel}
	for j, c := range t.cols {
		c.ensureAppendable()
		if j < len(src.cols) {
			c.appendFrom(src.cols[j], pos.lanes(src.cols[j]))
		} else {
			for range sel {
				c.append(Null())
			}
		}
	}
	t.markDirty(t.nrows, t.nrows+len(sel))
	t.nrows += len(sel)
	t.stats.AddRowsWritten(int64(len(sel)))
	return nil
}

// UpdateWhere applies fn to every row satisfying pred, returning the number
// of rows updated. Only the cells fn actually changed are scattered back
// into the column vectors — untouched columns keep their (possibly shared)
// backing, preserving the per-column copy-on-write boundary — and the
// unique index is rebuilt if indexed columns changed.
func (t *Table) UpdateWhere(pred func(Row) bool, fn func(Row) Row) (int, error) {
	updated := 0
	indexDirty := false
	for i := 0; i < t.nrows; i++ {
		t.stats.AddSeqReads(1)
		r := t.RowAt(i)
		if !pred(r) {
			continue
		}
		nr := fn(r.Clone())
		if len(nr) != len(t.Schema.Columns) {
			return updated, fmt.Errorf("relstore: table %s: update produced %d values, schema has %d", t.Name, len(nr), len(t.Schema.Columns))
		}
		if t.HasIndex() && encodeKey(r, t.indexCols) != encodeKey(nr, t.indexCols) {
			indexDirty = true
		}
		for j := range t.cols {
			if !r[j].Identical(nr[j]) {
				t.Set(i, j, nr[j])
			}
		}
		t.stats.AddRowsWritten(1)
		updated++
	}
	if indexDirty {
		names := t.IndexColumns()
		if err := t.BuildIndexOn(names...); err != nil {
			return updated, err
		}
	}
	return updated, nil
}

// DeleteWhere removes all rows satisfying pred and returns how many were
// removed. The unique index is rebuilt.
func (t *Table) DeleteWhere(pred func(Row) bool) int {
	keep := make(Selection, 0, t.nrows)
	for i := 0; i < t.nrows; i++ {
		t.stats.AddSeqReads(1)
		if !pred(t.RowAt(i)) {
			keep = append(keep, int32(i))
		}
	}
	removed := t.nrows - len(keep)
	if removed == 0 {
		return 0
	}
	t.regather(keep)
	if t.HasIndex() {
		names := t.IndexColumns()
		_ = t.BuildIndexOn(names...)
	}
	return removed
}

// regather makes row k of the table its row sel[k]: a view column composes its
// positions with sel, any other column gathers its cells. The dirty marks move
// with the rows.
func (t *Table) regather(sel Selection) {
	pos := composer{sel: sel}
	for j, c := range t.cols {
		if c.at != nil {
			t.cols[j] = c.viewThrough(pos.lanes(c))
		} else {
			t.cols[j] = c.gather(sel)
		}
	}
	t.remapDirty(sel)
	t.nrows = len(sel)
}

// Shrink keeps only the first n rows (the staging/test path that used to
// reslice the Rows field). The unique index is rebuilt if present.
func (t *Table) Shrink(n int) {
	if n >= t.nrows {
		return
	}
	for _, c := range t.cols {
		if c.at == nil {
			c.ensureOwned()
		}
		c.truncate(n)
		c.learn()
	}
	if words := (n + 63) >> 6; words <= len(t.dirty) {
		t.dirty = t.dirty[:words]
		if n&63 != 0 {
			t.dirty[words-1] &= 1<<(n&63) - 1
		}
	}
	t.nrows = n
	if t.HasIndex() {
		names := t.IndexColumns()
		_ = t.BuildIndexOn(names...)
	}
}

// SortBy physically reorders the table by the named columns (ascending) and
// records the requested clustering mode. The index is rebuilt.
func (t *Table) SortBy(mode ClusterMode, cols ...string) error {
	idx := make([]int, 0, len(cols))
	for _, c := range cols {
		i := t.Schema.ColumnIndex(c)
		if i < 0 {
			return fmt.Errorf("relstore: table %s: no column %q to sort by", t.Name, c)
		}
		idx = append(idx, i)
	}
	t.regather(sortSelection(t.cols, idx, t.nrows))
	t.Cluster = mode
	if t.HasIndex() {
		names := t.IndexColumns()
		if err := t.BuildIndexOn(names...); err != nil {
			return err
		}
	}
	return nil
}

// Project returns a new in-memory table containing only the named columns.
// The projected columns are copied (fresh vectors; string bytes and
// integer-array elements shared).
func (t *Table) Project(name string, cols ...string) (*Table, error) {
	idx := make([]int, 0, len(cols))
	outCols := make([]Column, 0, len(cols))
	for _, c := range cols {
		i := t.Schema.ColumnIndex(c)
		if i < 0 {
			return nil, fmt.Errorf("relstore: table %s: no column %q to project", t.Name, c)
		}
		idx = append(idx, i)
		outCols = append(outCols, t.Schema.Columns[i])
	}
	schema, err := NewSchema(outCols)
	if err != nil {
		return nil, err
	}
	out := NewTable(name, schema)
	out.SetStats(t.stats)
	out.nrows = t.nrows
	for j, c := range idx {
		out.cols[j] = t.cols[c].copyOwned()
	}
	t.stats.AddSeqReads(int64(t.nrows))
	return out, nil
}

// Clone returns a deep copy of the table (columns, array elements, and
// index) sharing the same stats collector.
func (t *Table) Clone(name string) *Table {
	out := NewTable(name, t.Schema.Clone())
	out.SetStats(t.stats)
	out.Cluster = t.Cluster
	out.nrows = t.nrows
	for j, c := range t.cols {
		out.cols[j] = c.deepCopy()
	}
	out.dirty = slices.Clone(t.dirty)
	if t.indexCols != nil {
		names := t.IndexColumns()
		_ = out.BuildIndexOn(names...)
	}
	return out
}

// AddColumn appends a column to the schema, filling existing rows with NULL
// (the ALTER TABLE ... ADD COLUMN path used by schema evolution). With
// columnar storage this allocates exactly one new null column; sibling
// columns — possibly shared with another table — are untouched.
func (t *Table) AddColumn(c Column) error {
	newSchema, err := t.Schema.WithColumn(c)
	if err != nil {
		return err
	}
	t.Schema = newSchema
	t.cols = append(t.cols, newNullColumn(t.nrows))
	t.stats.AddRowsWritten(int64(t.nrows))
	return nil
}

// AlterColumnType changes a column's declared type and casts every non-NULL
// cell that has a cast to it (Value.Cast: integer→decimal, decimal→integer,
// anything→string, ...), as ALTER COLUMN TYPE on a user's staging table does.
// Only the altered column is rewritten (copy-on-write when its backing is
// shared with another table), and the unique index is rebuilt when it covers
// the altered column.
//
// It is one of two entry points: GeneralizeColumn, the single-pool schema
// evolution of a table that stores records (Section 4.3), casts only the cells
// narrower than the new type and leaves every other cell as it is stored.
func (t *Table) AlterColumnType(name string, typ ValueType) error {
	return t.alterColumn(name, typ, func(ValueType) bool { return true })
}

// GeneralizeColumn changes a column's declared type to typ and casts exactly
// the cells Narrower than it (integer→decimal, anything→string, ...): the
// schema evolution of a table that stores records, which must leave every
// record's other cells — a string or an integer array in a decimal column, a
// NULL — as they were committed, so that a later version's evolution never
// rewrites an earlier version's records.
func (t *Table) GeneralizeColumn(name string, typ ValueType) error {
	return t.alterColumn(name, typ, func(cell ValueType) bool { return Narrower(cell, typ) })
}

// alterColumn changes a column's declared type to typ and casts the non-NULL
// cells whose type cast accepts.
func (t *Table) alterColumn(name string, typ ValueType, cast func(ValueType) bool) error {
	ci := t.Schema.ColumnIndex(name)
	if ci < 0 {
		return fmt.Errorf("relstore: table %s: no column %q", t.Name, name)
	}
	newSchema, err := t.Schema.WithColumnType(name, typ)
	if err != nil {
		return err
	}
	t.Schema = newSchema
	col := t.cols[ci]
	for i := 0; i < t.nrows; i++ {
		v := col.value(i)
		if v.IsNull() || !cast(v.Type) {
			continue
		}
		to, ok := v.Cast(typ)
		if !ok {
			continue
		}
		col.ensureOwned()
		col.set(i, to)
		t.markDirty(i, i+1)
		t.stats.AddRowsWritten(1)
	}
	col.learn()
	if t.HasIndex() {
		indexed := false
		for _, c := range t.indexCols {
			if c == ci {
				indexed = true
			}
		}
		if indexed {
			names := t.IndexColumns()
			if err := t.BuildIndexOn(names...); err != nil {
				return err
			}
		}
	}
	return nil
}

// Truncate removes all rows but keeps the schema and index definition. The
// column vectors are replaced outright, so backing shared with another table
// is released rather than written through.
func (t *Table) Truncate() {
	for j := range t.cols {
		t.cols[j] = newColumn(0)
	}
	t.nrows = 0
	t.dirty = nil
	if t.uniqueIndex != nil {
		t.uniqueIndex = make(map[string]int)
	}
	if t.intIndex != nil {
		t.intIndex, t.intSorted = make(map[int64]int), 0
	}
}
