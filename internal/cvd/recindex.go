package cvd

import (
	"hash/maphash"
	"math"
	"math/bits"
	"slices"

	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// This file is how a commit recognizes a staged row as a record the CVD
// already stores without diffing against the parent versions: one
// record-identity kernel — a hash and a typed comparison of a record's cells
// (recForm), read straight off the record catalog's typed lanes on the catalog
// side (recIndex) — and a hash multimap (slots) from content, and from
// primary-key cells, to record ids.
//
// Identity is typed, not rendered: two cells are the same when their type tag
// and payload are (relstore.Value.Identical), after each is brought to the
// form the current schema stores it in (canonical). NULL is not the empty
// string, no separator can be forged, a NaN is itself, and −0.0 and +0.0 are
// two values.
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
//
// The kernel. A cell folds into a record's hash as its type tag and a 64-bit
// payload (the integer, the float's bits, the bool as 0/1, a seeded hash of
// the string or of the array's elements), one 64×64→128-bit multiply a cell.
// A cell already in its column's type — every cell, unless the commit at hand
// evolves the schema — is read in place: a staged cell from its Value, a
// catalog cell from its column's tag lane and payload lane, so neither side is
// boxed; only a cell that needs a cast goes through canonical. A hash hit is
// confirmed against the catalog the same way, tag lane and payload lane
// against the staged Value. buildIndex hashes the catalog column by column,
// one pass over each column's lanes.
//
// The probe layout. slots is open addressing with linear probing over one
// uint64 a slot: the upper 32 bits of the hash above the 32-bit id, 0 for an
// empty slot. A lookup's first read is the slot its hash homes to, and that
// read already holds the stored hash half it is compared with; the slots
// after it share its cache line. The table doubles past 13/16 full, so it
// costs 8 bytes a slot, 9.8 to 19.7 bytes per record and chain: no more than
// buckets with one link and one stored hash per id (12 bytes and a 4-byte
// bucket each) did, and one dependent miss a probe instead of three.

// canonical returns *v in the form a column of type col stores it: v itself
// unless it is narrower than the column, in which case the cast lands in *buf.
// The catalog's evolution (relstore.Table.GeneralizeColumn) casts exactly
// these cells.
func canonical(v *relstore.Value, col relstore.ValueType, buf *relstore.Value) *relstore.Value {
	if !relstore.Narrower(v.Type, col) {
		return v
	}
	*buf, _ = v.Cast(col)
	return buf
}

var null = relstore.Null()

// fold mixes one cell, its type tag and its payload, into h: the two halves of
// a 128-bit product xored (wyhash's mum), with a multiplier per type so that
// equal payloads of two types part.
func fold(h uint64, t relstore.ValueType, payload uint64) uint64 {
	hi, lo := bits.Mul64(h^payload^0xa0761d6478bd642f, 0xe7037ed1a0b428db^uint64(t)<<32)
	return hi ^ lo
}

// recForm is the kernel's staged side: it hashes and compares boxed rows, each
// a cell for every type, by the canonical form of their cells under types;
// cols selects the cells (nil: all of them).
type recForm struct {
	types []relstore.ValueType
	all   []int        // 0 … len(types)-1
	seed  maphash.Seed // strings only; nothing the hash decides is observable
}

func newRecForm(schema relstore.Schema) recForm {
	n := len(schema.Columns)
	f := recForm{types: make([]relstore.ValueType, n), all: make([]int, n), seed: maphash.MakeSeed()}
	for i, col := range schema.Columns {
		f.types[i], f.all[i] = col.Type, i
	}
	return f
}

// at returns cell i of row in canonical form: the row's own Value unless it
// has to be cast, into *buf.
func (f *recForm) at(row relstore.Row, i int, buf *relstore.Value) *relstore.Value {
	return canonical(&row[i], f.types[i], buf)
}

// payload is what a canonical cell folds into a hash besides its type.
func (f *recForm) payload(v *relstore.Value) uint64 {
	switch v.Type {
	case relstore.TypeInt:
		return uint64(v.I)
	case relstore.TypeFloat:
		return math.Float64bits(v.F)
	case relstore.TypeBool:
		if v.B {
			return 1
		}
	case relstore.TypeString:
		return maphash.String(f.seed, v.S())
	case relstore.TypeIntArray:
		a := v.A()
		p := uint64(len(a))
		for _, e := range a {
			p = fold(p, relstore.TypeIntArray, uint64(e))
		}
		return p
	}
	return 0
}

func (f *recForm) hash(row relstore.Row, cols []int) uint64 {
	if cols == nil {
		cols = f.all
	}
	var h uint64
	var buf relstore.Value
	for _, i := range cols {
		v := &row[i]
		if v.Type != f.types[i] {
			v = canonical(v, f.types[i], &buf)
		}
		if v.Type == relstore.TypeInt { // the common case, without the call
			h = fold(h, relstore.TypeInt, uint64(v.I))
		} else {
			h = fold(h, v.Type, f.payload(v))
		}
	}
	return h
}

// same reports whether rows a and b are the same record over cols.
func (f *recForm) same(a, b relstore.Row, cols []int) bool {
	if cols == nil {
		cols = f.all
	}
	var bufA, bufB relstore.Value
	for _, i := range cols {
		if !f.at(a, i, &bufA).Identical(*f.at(b, i, &bufB)) {
			return false
		}
	}
	return true
}

// slots is a hash multimap from a 64-bit hash to ids 1 … math.MaxUint32 (see
// the probe layout above). Equal hashes — equal content, one key's history —
// sit in one run of slots. No per-entry allocation.
type slots struct {
	s []uint64 // a power of two long; hash>>32<<32 | id, 0 when empty
	n int      // ids filed
}

// full reports whether n ids are more than s slots may hold.
func full(n, s int) bool { return n*16 > s*13 }

// add files id under h. Ids are added once each.
func (t *slots) add(id uint32, h uint64) {
	if full(t.n+1, len(t.s)) {
		old := t.s
		t.s = make([]uint64, max(16, 2*len(old)))
		for _, e := range old {
			if e != 0 {
				t.put(e)
			}
		}
	}
	t.put(h>>32<<32 | uint64(id))
	t.n++
}

// put stores slot e in the first empty slot from its home on.
func (t *slots) put(e uint64) {
	mask := len(t.s) - 1
	p := int(e>>32) & mask
	for t.s[p] != 0 {
		p = (p + 1) & mask
	}
	t.s[p] = e
}

// reserve sizes an empty multimap for n ids.
func (t *slots) reserve(n int) {
	size := 16
	for full(n, size) {
		size *= 2
	}
	t.s, t.n = make([]uint64, size), 0
}

// first returns the first id filed under h, 0 if there is none, and the slot
// it was read from; next returns the one after slot p.
func (t *slots) first(h uint64) (uint32, int) {
	if len(t.s) == 0 {
		return 0, 0
	}
	return t.scan(h, int(h>>32)&(len(t.s)-1))
}

func (t *slots) next(h uint64, p int) (uint32, int) { return t.scan(h, (p+1)&(len(t.s)-1)) }

func (t *slots) scan(h uint64, p int) (uint32, int) {
	mask := len(t.s) - 1
	for {
		e := t.s[p]
		if e == 0 {
			return 0, p
		}
		if e>>32 == h>>32 {
			return uint32(e), p
		}
		p = (p + 1) & mask
	}
}

// recIndex is the per-CVD index over the record catalog, kept beside it and
// never persisted: the hash of a record's canonical content, and of its
// primary-key cells, to its record id. It is valid for one schema (see the note
// on schema evolution above): recordVersion adds the records a commit creates,
// adoptSchema drops it, and the next commit builds it again from the catalog.
type recIndex struct {
	recForm
	pk      []int // primary-key columns of the schema; empty without one
	content slots // hash of every cell → rid
	key     slots // hash of the primary-key cells → rid; empty without a key
}

func newRecIndex(schema relstore.Schema) *recIndex {
	return &recIndex{recForm: newRecForm(schema), pk: schema.PrimaryKeyIndexes()}
}

// catalogSide is the kernel's catalog side: the index with the catalog's lanes
// of each data attribute (catalog column i+1 at i; no tags for an attribute
// the catalog does not have yet). The lanes alias the catalog, so a commit
// reads them afresh (recIndex.on) and lets them go when it is done.
type catalogSide struct {
	*recIndex
	lanes []relstore.ColumnLanes
}

// on binds the index to the catalog; the caller holds c.mu, and writes the
// catalog only once it is done with the result.
func (x *recIndex) on(catalog *relstore.Table) catalogSide {
	m := catalogSide{x, make([]relstore.ColumnLanes, len(x.types))}
	for i := range m.lanes {
		if i+1 < len(catalog.Schema.Columns) {
			m.lanes[i] = catalog.ColumnLanes(i + 1)
		}
	}
	return m
}

// cellAt returns catalog cell (pos, i), boxed and canonical: the slow path,
// for cells that need a cast.
func (x catalogSide) cellAt(pos, i int) relstore.Value {
	l := &x.lanes[i]
	if pos >= len(l.Tags) {
		return null
	}
	v := l.Value(pos)
	return *canonical(&v, x.types[i], &v)
}

// record returns catalog row pos as a canonical row over cols, in buf.
func (x catalogSide) record(pos int, cols []int, buf relstore.Row) relstore.Row {
	for _, i := range cols {
		buf[i] = x.cellAt(pos, i)
	}
	return buf
}

// hashCatalog sets hs[pos] to the hash of catalog row pos over cols, column by
// column off the lanes.
func (x catalogSide) hashCatalog(cols []int, hs []uint64) {
	clear(hs)
	for _, i := range cols {
		l, typ := &x.lanes[i], x.types[i]
		tags := l.Tags[:min(len(l.Tags), len(hs))]
		for pos, t := range tags {
			if t == uint8(relstore.TypeInt) && typ == relstore.TypeInt { // the common case
				hs[pos] = fold(hs[pos], relstore.TypeInt, uint64(l.Ints[pos]))
				continue
			}
			v := x.cellAt(pos, i)
			hs[pos] = fold(hs[pos], v.Type, x.payload(&v))
		}
		for pos := len(tags); pos < len(hs); pos++ {
			hs[pos] = fold(hs[pos], relstore.TypeNull, 0)
		}
	}
}

// matches reports whether a staged row (aligned with the index's schema) and
// catalog row pos are the same record over cols.
func (x catalogSide) matches(row relstore.Row, pos int, cols []int) bool {
	if cols == nil {
		cols = x.all
	}
	var buf relstore.Value
	for _, i := range cols {
		v, l := &row[i], &x.lanes[i]
		if v.Type != x.types[i] {
			v = canonical(v, x.types[i], &buf)
		}
		if pos >= len(l.Tags) {
			if v.Type != relstore.TypeNull {
				return false
			}
			continue
		}
		if t := relstore.ValueType(l.Tags[pos]); t != v.Type {
			if !relstore.Narrower(t, x.types[i]) || !v.Identical(x.cellAt(pos, i)) {
				return false
			}
			continue
		}
		var same bool
		switch v.Type {
		case relstore.TypeInt:
			same = l.Ints[pos] == v.I
		case relstore.TypeFloat:
			same = math.Float64bits(l.Floats[pos]) == math.Float64bits(v.F)
		case relstore.TypeBool:
			same = (l.Ints[pos] != 0) == v.B
		case relstore.TypeString:
			same = l.Strs[pos] == v.S()
		case relstore.TypeIntArray:
			same = slices.Equal(l.Arrs[pos], v.A())
		default:
			same = true
		}
		if !same {
			return false
		}
	}
	return true
}

// add indexes one record; 0 < rid <= math.MaxUint32, far more records than
// a catalog held in memory can number.
func (x *recIndex) add(rid vgraph.RecordID, rec relstore.Row) {
	x.content.add(uint32(rid), x.hash(rec, nil))
	if len(x.pk) > 0 {
		x.key.add(uint32(rid), x.hash(rec, x.pk))
	}
}

// buildIndex indexes the whole catalog under schema, hashing it column by
// column.
func (c *CVD) buildIndex(schema relstore.Schema) *recIndex {
	x := newRecIndex(schema)
	cat := x.on(c.catalog)
	hs := make([]uint64, c.catalog.Len())
	fill := func(m *slots, cols []int) {
		cat.hashCatalog(cols, hs)
		m.reserve(len(hs))
		for pos, h := range hs {
			m.add(uint32(pos+1), h)
		}
	}
	fill(&x.content, x.all)
	if len(x.pk) > 0 {
		fill(&x.key, x.pk)
	}
	return x
}
