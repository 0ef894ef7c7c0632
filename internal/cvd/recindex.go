package cvd

import (
	"hash/maphash"
	"math"

	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// This file is how a commit recognizes a staged row as a record the CVD
// already stores without diffing against the parent versions: record identity
// as a hash plus a typed comparison (rowForm), a hash multimap (chains), and
// the per-CVD index over the record catalog built from the two (recIndex).
//
// Identity is typed, not rendered: two cells are the same when their type tag
// and payload are (relstore.Value.Identical), after each is brought to the
// form the current schema stores it in (canonical). NULL is not the empty
// string, no separator can be forged, and a NaN is itself.
//
// Identity across schema evolution. Generalizing a column (integer → decimal,
// anything → string) or widening the schema changes the form every record is
// stored in, not which record it is. So both sides of every comparison are
// canonicalized under the schema the index is for: a narrower value is cast up
// to the column type as ALTER COLUMN TYPE casts a stored cell, a missing
// trailing cell is NULL, and a value that is not narrower than its column (a
// string in an integer column) stays what it is. The catalog stores records in
// that form — appendRecords writes it, adoptSchema alters the table — so
// canonicalizing a catalog cell only does work while a commit that evolves the
// schema resolves its rows against the catalog as it still is. A record
// committed as integer 5 is therefore the staged decimal 5 once the column is
// decimal, and the index, which stores hashes of canonical forms, is rebuilt
// whenever the schema changes.

// canonical returns *v in the form a column of type col stores it: v itself
// unless it has to be cast, in which case the cast lands in *buf.
func canonical(v *relstore.Value, col relstore.ValueType, buf *relstore.Value) *relstore.Value {
	if v.Type == col || v.Type == relstore.TypeNull || relstore.GeneralizeType(v.Type, col) != col {
		return v
	}
	*buf, _ = v.Cast(col)
	return buf
}

var null = relstore.Null()

// cells is one side of a comparison: a boxed row of data attributes or, when
// tab is set, row pos of the record catalog read off its lanes (its data
// attributes follow the rid column).
type cells struct {
	row relstore.Row
	tab *relstore.Table
	pos int
}

// rowForm hashes and compares records by the canonical form of their cells. A
// record with fewer cells than types reads as padded with NULL; cols selects
// the cells (nil: all of them).
type rowForm struct {
	types []relstore.ValueType
	all   []int        // 0 … len(types)-1
	seed  maphash.Seed // strings only; nothing the hash decides is observable
}

func newRowForm(schema relstore.Schema) rowForm {
	n := len(schema.Columns)
	f := rowForm{types: make([]relstore.ValueType, n), all: make([]int, n), seed: maphash.MakeSeed()}
	for i, col := range schema.Columns {
		f.types[i], f.all[i] = col.Type, i
	}
	return f
}

// cell returns the canonical form of cell i of c, in *buf when it had to be
// boxed or cast.
func (f rowForm) cell(c cells, i int, buf *relstore.Value) *relstore.Value {
	if c.tab != nil {
		if i+1 >= len(c.tab.Schema.Columns) {
			return &null
		}
		*buf = c.tab.At(c.pos, i+1)
		return canonical(buf, f.types[i], buf)
	}
	if i >= len(c.row) {
		return &null
	}
	v := &c.row[i]
	if v.Type == f.types[i] { // the common case, kept out of the call
		return v
	}
	return canonical(v, f.types[i], buf)
}

// mix folds x into h (the multiply-xorshift step of MurmurHash3's finalizer).
func mix(h, x uint64) uint64 {
	h = (h ^ x) * 0xff51afd7ed558ccd
	return h ^ h>>33
}

func (f rowForm) hashCell(h uint64, v *relstore.Value) uint64 {
	var payload uint64
	switch v.Type {
	case relstore.TypeInt:
		payload = uint64(v.I)
	case relstore.TypeFloat:
		payload = math.Float64bits(v.F)
	case relstore.TypeBool:
		if v.B {
			payload = 1
		}
	case relstore.TypeString:
		payload = maphash.String(f.seed, v.S)
	case relstore.TypeIntArray:
		payload = uint64(len(v.A))
		for _, e := range v.A {
			payload = mix(payload, uint64(e))
		}
	}
	return mix(mix(h, uint64(v.Type)), payload)
}

func (f rowForm) hash(c cells, cols []int) uint64 {
	if cols == nil {
		cols = f.all
	}
	var h uint64
	var buf relstore.Value
	for _, i := range cols {
		h = f.hashCell(h, f.cell(c, i, &buf))
	}
	return h
}

// same reports whether a and b are the same record over cols. Where b is a
// catalog record whose column already has the form's type — always, unless the
// commit at hand evolves the schema — the stored cell is in canonical form and
// is compared in place, lane against value.
func (f rowForm) same(a, b cells, cols []int) bool {
	if cols == nil {
		cols = f.all
	}
	var bufA, bufB relstore.Value
	for _, i := range cols {
		va := f.cell(a, i, &bufA)
		if b.tab != nil && i+1 < len(b.tab.Schema.Columns) && b.tab.Schema.Columns[i+1].Type == f.types[i] {
			if !b.tab.CellIdentical(b.pos, i+1, va) {
				return false
			}
		} else if !va.Identical(*f.cell(b, i, &bufB)) {
			return false
		}
	}
	return true
}

// chains is a hash multimap from a 64-bit hash to small positive ids, laid
// out as bucket heads plus one link and one stored hash per id: 12 bytes per
// id and 4 per bucket, no per-entry allocation. Equal hashes (equal content,
// one hot key's history) share a bucket without lengthening any other. The id
// 0 ends a chain.
type chains struct {
	heads []uint32 // bucket → its most recently added id
	next  []uint32 // id → the next id of its bucket
	hash  []uint64 // id → its hash
	n     int
}

// add files id under h. Ids are added once each.
func (c *chains) add(id uint32, h uint64) {
	if grow := int(id) + 1 - len(c.hash); grow > 0 {
		c.hash = append(c.hash, make([]uint64, grow)...)
		c.next = append(c.next, make([]uint32, grow)...)
	}
	if c.n >= len(c.heads) {
		c.rehash(max(16, 2*len(c.heads)))
	}
	c.hash[id] = h
	b := h & uint64(len(c.heads)-1)
	c.next[id], c.heads[b] = c.heads[b], id
	c.n++
}

// rehash relinks every id into size buckets (a power of two).
func (c *chains) rehash(size int) {
	old := c.heads
	c.heads = make([]uint32, size)
	for _, id := range old {
		for id != 0 {
			following := c.next[id]
			b := c.hash[id] & uint64(size-1)
			c.next[id], c.heads[b] = c.heads[b], id
			id = following
		}
	}
}

// reserve sizes an empty multimap for ids up to n, with room for a quarter
// more — the slack append gives a large slice when it first grows — so the
// commit that builds the index adds its own records without copying it.
func (c *chains) reserve(n int) {
	c.hash, c.next = make([]uint64, n+1, n+1+n/4), make([]uint32, n+1, n+1+n/4)
	size := 16
	for size < n {
		size *= 2
	}
	c.heads = make([]uint32, size)
}

// first returns the first id filed under h, 0 if there is none; after returns
// the one that follows id.
func (c *chains) first(h uint64) uint32 {
	if len(c.heads) == 0 {
		return 0
	}
	return c.skip(c.heads[h&uint64(len(c.heads)-1)], h)
}

func (c *chains) after(id uint32, h uint64) uint32 { return c.skip(c.next[id], h) }

func (c *chains) skip(id uint32, h uint64) uint32 {
	for id != 0 && c.hash[id] != h {
		id = c.next[id]
	}
	return id
}

// recIndex is the per-CVD index over the record catalog, kept beside it and
// never persisted: the hash of a record's canonical content, and of its
// primary-key cells, to its record id — the id itself is the chain id, which
// is what keeps the index at 16–20 bytes per record per chain. It is valid for
// one schema (see the note on schema evolution above): recordVersion adds the
// records a commit creates, adoptSchema drops it, and the next commit builds
// it again from the catalog.
type recIndex struct {
	rowForm
	pk      []int  // primary-key columns of the schema; empty without one
	content chains // hash of every cell → rid
	key     chains // hash of the primary-key cells → rid; empty without a key
}

func newRecIndex(schema relstore.Schema) *recIndex {
	return &recIndex{rowForm: newRowForm(schema), pk: schema.PrimaryKeyIndexes()}
}

// add indexes one record; 0 < rid <= math.MaxUint32, far more records than
// a catalog held in memory can number.
func (x *recIndex) add(rid vgraph.RecordID, rec cells) {
	x.content.add(uint32(rid), x.hash(rec, nil))
	if len(x.pk) > 0 {
		x.key.add(uint32(rid), x.hash(rec, x.pk))
	}
}

// buildIndex indexes the whole catalog under schema, walking its rows in
// order.
func (c *CVD) buildIndex(schema relstore.Schema) *recIndex {
	x := newRecIndex(schema)
	n := c.catalog.Len()
	x.content.reserve(n)
	if len(x.pk) > 0 {
		x.key.reserve(n)
	}
	for rid := vgraph.RecordID(1); int(rid) <= n; rid++ {
		x.add(rid, c.rec(rid))
	}
	return x
}
