package relstore

import (
	"cmp"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// This file holds the columnar storage layer behind Table: typed column
// vectors with a per-cell type/null tag, per-column copy-on-write sharing,
// selection vectors, and vectorized predicate evaluation (FilterVec).
//
// Physical layout. Each column stores its cells in typed vectors — []int64
// for integers and booleans (booleans as 0/1), []float64, []string, and a
// [][]int64 overflow vector for integer-array cells — plus a tag vector with
// one ValueType byte per cell. The tag vector doubles as the null bitmap
// (TypeNull marks SQL NULL) and as the escape hatch for heterogeneous
// columns: a stray string cell in an integer column simply lazily
// materializes the string vector, so arbitrary Values round-trip exactly.
//
// Copy-on-write. A checkout's staging table copies no cell (see
// Table.GatherInto): each of its columns is a view column, whose position
// vector at maps cell i to lane cell at[i] of the lanes of the table it was
// selected from. Those lanes are only read: the source column is marked
// viewed, so its own in-place writes copy first, and its appends land past
// every view's cells. Every mutating path — set, append, delete, sort,
// truncate — first gives the column it touches lanes of its own
// (ensureOwned, ensureAppendable); a view column gathers its cells then, into
// lanes sized n + n/4, so that the appends which usually follow an edit do not
// regrow them. The boundary is per column: adding a column or rewriting one
// column's cells never copies its siblings, which stay views. Selecting from
// a view again (GatherInto, AppendFrom, DeleteWhere, SortBy, Shrink) composes
// positions instead of copying cells.
//
// The trade-off: a staging table keeps the lanes it was selected from alive —
// the catalog's lanes as of its checkout, however the catalog has grown or
// been copied since — until it is dropped or every column has been written.
//
// Views. A column that only has read-only views over its current cells
// (Table.View, or view columns) is marked viewed, not shared: appending to it
// lands past every view's cells and copies nothing (ensureAppendable), any
// other write copies first as above.
//
// Facts. A column keeps two conservative facts about its cells, each kept at
// every lane write so that no reader has to re-derive it: the tag every cell
// has (one), and how many leading cells hold the integers 1, 2, 3, ... (run).
// A record catalog appends records in rid order from 1, so its rid column's
// run covers every row: a checkout's join reads a version's rows straight off
// its record set (JoinTableOnRIDs) and a select walks the set into positions
// (FilterVecSet), neither reading a rid. A fact may understate the cells —
// a view column's run is 0 — but never overstates them.

// Selection is a selection vector: row positions in ascending order, as
// produced by FilterVec and consumed by GatherInto/AppendFrom.
type Selection []int32

// CmpOp is a compiled comparison operator. Resolving the operator string once
// (ParseCmpOp) keeps the per-row work of predicates down to a single
// three-way compare plus a jump table.
type CmpOp uint8

// Comparison operators in Value.Compare's three-way convention.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// ParseCmpOp resolves a SQL-ish operator spelling ("=", "==", "!=", "<>",
// "<", "<=", ">", ">=") to a compiled operator.
func ParseCmpOp(op string) (CmpOp, bool) {
	switch op {
	case "=", "==":
		return CmpEQ, true
	case "!=", "<>":
		return CmpNE, true
	case "<":
		return CmpLT, true
	case "<=":
		return CmpLE, true
	case ">":
		return CmpGT, true
	case ">=":
		return CmpGE, true
	default:
		return 0, false
	}
}

// String returns the canonical spelling of the operator.
func (o CmpOp) String() string {
	switch o {
	case CmpEQ:
		return "="
	case CmpNE:
		return "!="
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	default:
		return "?"
	}
}

// Eval applies the operator to a three-way comparison result.
func (o CmpOp) Eval(cmp int) bool {
	switch o {
	case CmpEQ:
		return cmp == 0
	case CmpNE:
		return cmp != 0
	case CmpLT:
		return cmp < 0
	case CmpLE:
		return cmp <= 0
	case CmpGT:
		return cmp > 0
	case CmpGE:
		return cmp >= 0
	default:
		return false
	}
}

// keep returns Eval as a mask: bit k+1 is set when the operator accepts the
// three-way result k.
func (o CmpOp) keep() uint8 {
	var mask uint8
	for k := -1; k <= 1; k++ {
		if o.Eval(k) {
			mask |= 1 << (k + 1)
		}
	}
	return mask
}

// ColPred is one column comparison of a compiled multi-predicate filter
// (Table.FilterVecAll chains them as successive selection refinements).
type ColPred struct {
	Col   string
	Op    CmpOp
	Value Value
}

// column is one attribute's physical storage.
type column struct {
	tags   []uint8   // per-cell ValueType: null bitmap and type tag in one vector
	ints   []int64   // TypeInt cells, and TypeBool cells as 0/1
	floats []float64 // TypeFloat cells
	strs   []string  // TypeString cells
	arrs   [][]int64 // TypeIntArray cells (the overflow vector)

	// at, when non-nil, makes the column a view column: cell i is lane cell
	// at[i] of the lanes above, which belong to the column it was selected
	// from and are only read. Sibling view columns of one table may share one
	// position vector; it is never written, only replaced.
	at []int32

	// run is how many leading cells are known to hold their rids: cells
	// [0, run) are tagged TypeInt and cell i holds i+1. A conservative fact
	// kept at every lane write — an append of the next integer extends it, an
	// in-place write at or below it lowers it, a truncation clips it. A view
	// column's is 0: its cells are the source's through positions.
	run int

	// one is 1 + the tag every cell of the column has, and 0 when the column
	// knows no such tag: a conservative fact, kept at every tag write, which
	// lets the box kernel (Table.RowBlock) and the typed filter (filterLane)
	// skip the scattered reads of the tag lane. A view column's is its
	// source's as of the view: it covers the source's cells then, a superset
	// of the view's, and those cells are never written in place.
	one uint8

	// shared is colShared when the backing vectors are shared with another
	// table and colViewed when they only back read-only views. Accessed
	// atomically: checkouts mark a source column shared holding no lock —
	// they read a view the layer above published — so concurrent checkouts
	// of the same table store the flag in parallel; the vectors themselves
	// are only mutated by writers that the layer above serializes.
	shared uint32
}

const (
	colShared uint32 = 1
	colViewed uint32 = 2
)

func (c *column) isShared() bool { return atomic.LoadUint32(&c.shared) == colShared }

// uniform returns the tag every cell of the column has, if it knows one.
func (c *column) uniform() (ValueType, bool) { return ValueType(c.one - 1), c.one != 0 }

// noteTag keeps the uniform-tag fact for a cell tagged typ just written into a
// column of n cells.
func (c *column) noteTag(typ ValueType, n int) {
	if n == 1 {
		c.one = uint8(typ) + 1
	} else if c.one != uint8(typ)+1 {
		c.one = 0
	}
}

// learn recomputes both facts, the uniform tag and the rid run, from the
// column's cells.
func (c *column) learn() {
	c.one, c.run = 0, 0
	if c.len() == 0 {
		return
	}
	if c.at == nil {
		c.run = ridRun(c.tags, c.ints, 0)
	}
	first := c.tags[c.cell(0)]
	if c.at == nil {
		for _, t := range c.tags {
			if t != first {
				return
			}
		}
	} else {
		for _, p := range c.at {
			if c.tags[p] != first {
				return
			}
		}
	}
	c.one = first + 1
}

// ridRun returns how far the cells from, from+1, ... go on holding their rids
// (cell i tagged TypeInt, holding i+1): the first cell at or past from that
// does not.
func ridRun(tags []uint8, ints []int64, from int) int {
	if ints == nil {
		return from
	}
	i := from
	for i < len(tags) && ValueType(tags[i]) == TypeInt && ints[i] == int64(i+1) {
		i++
	}
	return i
}

func newColumn(capHint int) *column {
	if capHint < 0 {
		capHint = 0
	}
	return &column{tags: make([]uint8, 0, capHint)}
}

// newNullColumn returns a column of n NULL cells (the ADD COLUMN fill).
func newNullColumn(n int) *column {
	return &column{tags: make([]uint8, n), one: uint8(TypeNull) + 1} // TypeNull == 0
}

func (c *column) len() int {
	if c.at != nil {
		return len(c.at)
	}
	return len(c.tags)
}

// cell returns the lane position of cell i.
func (c *column) cell(i int) int {
	if c.at != nil {
		return int(c.at[i])
	}
	return i
}

// ensureLane makes payload lane p cover every existing cell; lanes are
// allocated lazily the first time a cell of their type appears.
func ensureLaneInt(c *column) {
	if c.ints == nil {
		c.ints = make([]int64, len(c.tags))
	}
}

func ensureLaneFloat(c *column) {
	if c.floats == nil {
		c.floats = make([]float64, len(c.tags))
	}
}

func ensureLaneStr(c *column) {
	if c.strs == nil {
		c.strs = make([]string, len(c.tags))
	}
}

func ensureLaneArr(c *column) {
	if c.arrs == nil {
		c.arrs = make([][]int64, len(c.tags))
	}
}

// append adds one cell. The caller must have called ensureAppendable (any
// write into shared backing — including an append into spare capacity another
// sharer may also append into — is unsafe; a view never appends).
func (c *column) append(v Value) {
	c.tags = append(c.tags, uint8(v.Type))
	n := len(c.tags)
	c.noteTag(v.Type, n)
	if c.ints != nil {
		c.ints = append(c.ints, 0)
	}
	if c.floats != nil {
		c.floats = append(c.floats, 0)
	}
	if c.strs != nil {
		c.strs = append(c.strs, "")
	}
	if c.arrs != nil {
		c.arrs = append(c.arrs, nil)
	}
	switch v.Type {
	case TypeInt:
		if c.ints == nil {
			c.ints = make([]int64, n)
		}
		c.ints[n-1] = v.I
		if c.run == n-1 && v.I == int64(n) {
			c.run = n
		}
	case TypeBool:
		if c.ints == nil {
			c.ints = make([]int64, n)
		}
		if v.B {
			c.ints[n-1] = 1
		}
	case TypeFloat:
		if c.floats == nil {
			c.floats = make([]float64, n)
		}
		c.floats[n-1] = v.F
	case TypeString:
		if c.strs == nil {
			c.strs = make([]string, n)
		}
		c.strs[n-1] = v.S()
	case TypeIntArray:
		if c.arrs == nil {
			c.arrs = make([][]int64, n)
		}
		c.arrs[n-1] = v.A()
	}
}

// value materializes cell i. Integer-array cells share their element slice
// with the column storage (the same immutable-once-inserted discipline rows
// have always followed); Clone the row before mutating through it.
func (c *column) value(i int) (v Value) {
	// Written to stay cheap enough to inline, and Table.At with it.
	c.box(&v, i)
	return v
}

// box writes cell i into the zero Value *v, field by field: the one switch
// every boxed cell goes through (value, RowBlock, ColumnLanes.Value). A
// scalar cell writes no pointer, so boxing into freshly zeroed memory stores
// none and needs no write barrier, and a column that knows every cell's tag
// (uniform) does not read its tag lane.
func (c *column) box(v *Value, i int) {
	if c.at != nil {
		i = int(c.at[i])
	}
	typ, ok := c.uniform()
	if !ok {
		typ = ValueType(c.tags[i])
	}
	switch v.Type = typ; typ {
	case TypeInt:
		v.I = c.ints[i]
	case TypeFloat:
		v.F = c.floats[i]
	case TypeBool:
		v.B = c.ints[i] != 0
	case TypeString:
		v.setStr(c.strs[i])
	case TypeIntArray:
		v.setArr(c.arrs[i])
	}
}

// asInt is Value.AsInt without materializing the Value.
func (c *column) asInt(i int) int64 {
	i = c.cell(i)
	switch ValueType(c.tags[i]) {
	case TypeInt, TypeBool:
		return c.ints[i]
	case TypeFloat:
		return int64(c.floats[i])
	case TypeString:
		n, _ := strconv.ParseInt(c.strs[i], 10, 64)
		return n
	default:
		return 0
	}
}

// asString is Value.AsString without materializing the Value.
func (c *column) asString(i int) string {
	i = c.cell(i)
	switch ValueType(c.tags[i]) {
	case TypeInt:
		return strconv.FormatInt(c.ints[i], 10)
	case TypeFloat:
		return strconv.FormatFloat(c.floats[i], 'g', -1, 64)
	case TypeString:
		return c.strs[i]
	case TypeBool:
		return strconv.FormatBool(c.ints[i] != 0)
	case TypeIntArray:
		parts := make([]string, len(c.arrs[i]))
		for k, x := range c.arrs[i] {
			parts[k] = strconv.FormatInt(x, 10)
		}
		return "{" + strings.Join(parts, ",") + "}"
	default:
		return ""
	}
}

// set overwrites cell i. The caller must have called ensureOwned when the
// column is shared.
func (c *column) set(i int, v Value) {
	c.tags[i] = uint8(v.Type)
	c.noteTag(v.Type, len(c.tags))
	c.run = min(c.run, i)
	// Clear every lane first so stale payloads from the previous type cannot
	// resurface if the cell's type changes again later.
	if c.ints != nil {
		c.ints[i] = 0
	}
	if c.floats != nil {
		c.floats[i] = 0
	}
	if c.strs != nil {
		c.strs[i] = ""
	}
	if c.arrs != nil {
		c.arrs[i] = nil
	}
	switch v.Type {
	case TypeInt:
		ensureLaneInt(c)
		c.ints[i] = v.I
	case TypeBool:
		ensureLaneInt(c)
		if v.B {
			c.ints[i] = 1
		}
	case TypeFloat:
		ensureLaneFloat(c)
		c.floats[i] = v.F
	case TypeString:
		ensureLaneStr(c)
		c.strs[i] = v.S()
	case TypeIntArray:
		ensureLaneArr(c)
		c.arrs[i] = v.A()
	}
}

// ensureOwned gives the column backing vectors of its own when it shares them
// with another table — the per-column copy-on-write boundary. A view column
// gathers its cells through its positions. Either way the new vectors have
// room for a quarter more cells, so that the appends which usually follow an
// edit of a checkout do not copy the column a second time. Integer-array
// cells keep sharing their element slices (cells are replaced wholesale,
// never edited in place).
func (c *column) ensureOwned() {
	if atomic.LoadUint32(&c.shared) == 0 {
		return
	}
	n := c.len()
	c.tags = ownLane(c.tags, c.at, n, n+n/4)
	c.ints = ownLane(c.ints, c.at, n, n+n/4)
	c.floats = ownLane(c.floats, c.at, n, n+n/4)
	c.strs = ownLane(c.strs, c.at, n, n+n/4)
	c.arrs = ownLane(c.arrs, c.at, n, n+n/4)
	c.at = nil
	atomic.StoreUint32(&c.shared, 0)
}

// ownLane returns a fresh lane of n cells with room for capacity: the first n
// cells of lane, or a view column's cells through its positions at. A lane
// the column does not have stays nil.
func ownLane[T any](lane []T, at []int32, n, capacity int) []T {
	if lane == nil {
		return nil
	}
	out := make([]T, n, capacity)
	if at == nil {
		copy(out, lane[:n])
		return out
	}
	for k, p := range at {
		out[k] = lane[p]
	}
	return out
}

// ensureAppendable is ensureOwned for a caller about to append: cells past
// the current length are no view's, so only a column shared outright — a view
// column among them — copies.
func (c *column) ensureAppendable() {
	if c.isShared() {
		c.ensureOwned()
	}
}

// view returns a column over the receiver's current cells for reading only
// and marks the receiver viewed, unless it is shared already. The view itself
// counts as shared: whatever is gathered from it copies before it writes. The
// flag is swapped atomically because concurrent checkouts view the same
// source column holding no lock.
func (c *column) view() *column {
	atomic.CompareAndSwapUint32(&c.shared, 0, colViewed)
	return c.alias()
}

// viewThrough is view with the lane positions at: cell k of the returned view
// column is lane cell at[k] of the receiver's lanes. at is adopted, not
// copied.
func (c *column) viewThrough(at []int32) *column {
	v := c.view()
	v.at, v.run = at, 0
	return v
}

func (c *column) alias() *column {
	return &column{
		tags:   c.tags,
		ints:   c.ints,
		floats: c.floats,
		strs:   c.strs,
		arrs:   c.arrs,
		at:     c.at,
		one:    c.one,
		run:    c.run,
		shared: colShared,
	}
}

// copyOwned returns a private copy of the column (fresh backing vectors;
// integer-array elements still shared — use deepCopy for a full clone).
func (c *column) copyOwned() *column {
	n := c.len()
	return &column{
		tags:   ownLane(c.tags, c.at, n, n),
		ints:   ownLane(c.ints, c.at, n, n),
		floats: ownLane(c.floats, c.at, n, n),
		strs:   ownLane(c.strs, c.at, n, n),
		arrs:   ownLane(c.arrs, c.at, n, n),
		one:    c.one,
		run:    c.run,
	}
}

// deepCopy is copyOwned plus a copy of every integer-array element slice.
func (c *column) deepCopy() *column {
	out := c.copyOwned()
	for i, a := range out.arrs {
		if a != nil {
			out.arrs[i] = append([]int64(nil), a...)
		}
	}
	return out
}

// gather returns a new column holding the lane cells at the positions sel,
// which are the column's cells unless it is a view column. Its rid run is 0.
func (c *column) gather(sel Selection) *column {
	out := &column{tags: make([]uint8, len(sel)), one: c.one}
	if c.ints != nil {
		// The common column — tags and integers — in one pass over sel.
		out.ints = make([]int64, len(sel))
		tags, ints, outTags, outInts := c.tags, c.ints, out.tags, out.ints[:len(out.tags)]
		for k, i := range sel {
			outTags[k], outInts[k] = tags[i], ints[i]
		}
	} else {
		for k, i := range sel {
			out.tags[k] = c.tags[i]
		}
	}
	if c.floats != nil {
		out.floats = make([]float64, len(sel))
		for k, i := range sel {
			out.floats[k] = c.floats[i]
		}
	}
	if c.strs != nil {
		out.strs = make([]string, len(sel))
		for k, i := range sel {
			out.strs[k] = c.strs[i]
		}
	}
	if c.arrs != nil {
		out.arrs = make([][]int64, len(sel))
		for k, i := range sel {
			out.arrs[k] = c.arrs[i]
		}
	}
	return out
}

// appendFrom appends src's lane cells at the positions lanes — src's cells
// mapped through its positions when it is a view column — lane by lane (no
// per-cell Value boxing). The caller must have called ensureAppendable. Lane
// values of cells whose tag names a different type are zero values on both
// sides, so copying them verbatim is exact.
func (c *column) appendFrom(src *column, lanes Selection) {
	base := len(c.tags)
	for _, i := range lanes {
		c.tags = append(c.tags, src.tags[i])
	}
	if base == 0 {
		c.one = src.one
	} else if len(lanes) > 0 && c.one != src.one {
		c.one = 0
	}
	c.ints = appendLane(c.ints, src.ints, lanes, base)
	c.floats = appendLane(c.floats, src.floats, lanes, base)
	c.strs = appendLane(c.strs, src.strs, lanes, base)
	c.arrs = appendLane(c.arrs, src.arrs, lanes, base)
	if c.run == base {
		c.run = ridRun(c.tags, c.ints, base)
	}
}

// appendLane extends one payload lane with the selected cells of the source
// lane. A lane absent on both sides stays absent; a lane present on either
// side is materialized (zero-padded to base on the destination, zeros for a
// missing source).
func appendLane[T any](dst, src []T, sel Selection, base int) []T {
	if dst == nil && src == nil {
		return nil
	}
	if dst == nil {
		dst = make([]T, base, base+len(sel))
	}
	if src == nil {
		return append(dst, make([]T, len(sel))...)
	}
	for _, i := range sel {
		dst = append(dst, src[i])
	}
	return dst
}

// truncate keeps the first n cells: a view column drops the positions past
// them, any other column must have called ensureOwned.
func (c *column) truncate(n int) {
	c.run = min(c.run, n)
	if c.at != nil {
		c.at = c.at[:n]
		return
	}
	c.tags = c.tags[:n]
	if c.ints != nil {
		c.ints = c.ints[:n]
	}
	if c.floats != nil {
		c.floats = c.floats[:n]
	}
	if c.strs != nil {
		c.strs = c.strs[:n]
	}
	if c.arrs != nil {
		c.arrs = c.arrs[:n]
	}
}

// reserve grows the backing vectors to hold n more cells without
// reallocating per append (the InsertBatch capacity hint).
func (c *column) reserve(n int) {
	c.tags = growCap(c.tags, n)
	if c.ints != nil {
		c.ints = growCap(c.ints, n)
	}
	if c.floats != nil {
		c.floats = growCap(c.floats, n)
	}
	if c.strs != nil {
		c.strs = growCap(c.strs, n)
	}
	if c.arrs != nil {
		c.arrs = growCap(c.arrs, n)
	}
}

func growCap[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	out := make([]T, len(s), len(s)+n)
	copy(out, s)
	return out
}

// storageBytes sums the accounted footprint of every cell (identical to the
// per-Value accounting of Value.StorageBytes).
func (c *column) storageBytes() int64 {
	var n int64
	for k := range c.len() {
		i := c.cell(k)
		switch ValueType(c.tags[i]) {
		case TypeNull, TypeBool:
			n++
		case TypeInt, TypeFloat:
			n += 8
		case TypeString:
			n += int64(len(c.strs[i])) + 4
		case TypeIntArray:
			n += int64(len(c.arrs[i]))*8 + 8
		}
	}
	return n
}

// compare three-way compares cell k against v with exactly Value.Compare's
// rules (NULL sorts first, integers and booleans compare exactly, a float
// against another numeric type as floats, integer arrays lexicographically,
// everything else on the string rendering). vf and vs are the precomputed float
// and string renderings of v, so the generic scan never rematerializes them per
// cell.
func (c *column) compare(k int, v Value, vf float64, vs string) int {
	i := c.cell(k)
	tag := ValueType(c.tags[i])
	if tag == TypeNull || v.Type == TypeNull {
		switch {
		case tag == TypeNull && v.Type == TypeNull:
			return 0
		case tag == TypeNull:
			return -1
		default:
			return 1
		}
	}
	if isNumeric(tag) && isNumeric(v.Type) {
		if tag != TypeFloat && v.Type != TypeFloat {
			return cmp.Compare(c.ints[i], v.AsInt())
		}
		var a float64
		switch tag {
		case TypeInt, TypeBool:
			a = float64(c.ints[i])
		case TypeFloat:
			a = c.floats[i]
		}
		switch {
		case a < vf:
			return -1
		case a > vf:
			return 1
		default:
			return 0
		}
	}
	if tag == TypeIntArray && v.Type == TypeIntArray {
		return compareIntSlices(c.arrs[i], v.A())
	}
	if tag == TypeString {
		return strings.Compare(c.strs[i], vs)
	}
	return strings.Compare(c.asString(k), vs)
}

// filter evaluates `cell op v` over the whole column (sel == nil) or over an
// existing selection, which it refines in place, returning the surviving
// positions. A numeric literal runs the typed kernel over the lane it compares
// against directly; anything else compares cell by cell.
func (c *column) filter(op CmpOp, v Value, sel Selection) Selection {
	if c.at != nil {
		return c.filterView(op, v, sel)
	}
	switch {
	case (v.Type == TypeInt || v.Type == TypeBool) && c.ints != nil:
		return filterLane(c, c.ints, TypeInt, v.AsInt(), op, v, sel)
	case isNumeric(v.Type) && c.floats != nil:
		// A float literal, or an integer one against a column holding no
		// integers: either way the comparison is on floats.
		return filterLane(c, c.floats, TypeFloat, v.AsFloat(), op, v, sel)
	}
	vf, vs := v.AsFloat(), v.AsString()
	if sel == nil {
		out := make(Selection, 0, len(c.tags)/4+1)
		for i := range c.tags {
			if op.Eval(c.compare(i, v, vf, vs)) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	out := sel[:0]
	for _, i := range sel {
		if op.Eval(c.compare(int(i), v, vf, vs)) {
			out = append(out, i)
		}
	}
	return out
}

// filterView is filter over a view column: it refines the lane positions of
// the cells asked about over the lanes, then maps the survivors back. The
// verdict on a cell depends on its lane cell alone, so walking the cells in
// order, each one whose lane position is the next surviving one survived.
func (c *column) filterView(op CmpOp, v Value, sel Selection) Selection {
	n := len(c.at)
	if sel != nil {
		n = len(sel)
	}
	cell := func(k int) int32 {
		if sel != nil {
			return sel[k]
		}
		return int32(k)
	}
	lanes := make(Selection, n)
	for k := range lanes {
		lanes[k] = c.at[cell(k)]
	}
	base := column{tags: c.tags, ints: c.ints, floats: c.floats, strs: c.strs, arrs: c.arrs, one: c.one}
	kept := base.filter(op, v, lanes)
	out := sel[:0] // refined in place: a survivor is written at or before its own slot
	if sel == nil {
		out = make(Selection, 0, len(kept))
	}
	for k, j := 0, 0; k < n && j < len(kept); k++ {
		if i := cell(k); c.at[i] == kept[j] {
			out = append(out, i)
			j++
		}
	}
	return out
}

// filterLane is filter's typed kernel: cells tagged typ compare their lane
// value straight against b, which is v on that lane; every other cell — NULL,
// a stray string, the other numeric type — goes through compare, so the
// result is Value.Compare's. keep has bit k+1 set for each three-way result k
// the operator accepts.
func filterLane[T int64 | float64](c *column, lane []T, typ ValueType, b T, op CmpOp, v Value, sel Selection) Selection {
	keep := op.keep()
	tags, want := c.tags, uint8(typ)
	lane = lane[:len(tags)]
	if t, ok := c.uniform(); ok && t == typ {
		return filterUniform(lane, b, keep, sel)
	}
	vf, vs, rendered := v.AsFloat(), "", false
	other := func(i int) bool {
		if !rendered {
			vs, rendered = v.AsString(), true
		}
		return keep&(1<<(c.compare(i, v, vf, vs)+1)) != 0
	}
	if sel == nil {
		out := make(Selection, 0, len(tags)/4+1)
		for i, tag := range tags {
			if tag != want {
				if other(i) {
					out = append(out, int32(i))
				}
			} else if keep&rank(lane[i], b) != 0 {
				out = append(out, int32(i))
			}
		}
		return out
	}
	// Compact in place: every position is written back at or before its own
	// slot, and kept by advancing n.
	n := 0
	for _, i := range sel {
		sel[n] = i
		if tags[i] != want {
			if other(int(i)) {
				n++
			}
		} else if keep&rank(lane[i], b) != 0 {
			n++
		}
	}
	return sel[:n]
}

// filterUniform is filterLane over a column whose every cell is tagged the
// lane's type: it reads no tag.
func filterUniform[T int64 | float64](lane []T, b T, keep uint8, sel Selection) Selection {
	if sel == nil {
		out := make(Selection, 0, len(lane)/4+1)
		for i, x := range lane {
			if keep&rank(x, b) != 0 {
				out = append(out, int32(i))
			}
		}
		return out
	}
	n := 0
	for _, i := range sel {
		sel[n] = i
		if keep&rank(lane[i], b) != 0 {
			n++
		}
	}
	return sel[:n]
}

// rank is the three-way comparison of a and b as the bit filterLane's keep
// mask tests: 1 below, 2 equal, 4 above. Floats that are neither below nor
// above — NaN on either side — rank equal, as Value.Compare has them.
func rank[T int64 | float64](a, b T) uint8 {
	if a < b {
		return 1
	}
	if a > b {
		return 4
	}
	return 2
}

// sortSelection orders positions by the given key columns ascending (stable),
// the column-wise implementation of Table.SortBy.
func sortSelection(cols []*column, keys []int, n int) Selection {
	sel := make(Selection, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	sort.SliceStable(sel, func(a, b int) bool {
		for _, k := range keys {
			va, vb := cols[k].value(int(sel[a])), cols[k].value(int(sel[b]))
			if cmp := va.Compare(vb); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return sel
}
