package relstore

import (
	"cmp"
	"math"
	"slices"
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
// Copy-on-write. Checkout staging tables share column backing with the data
// table they were materialized from (see Table.GatherInto): both sides mark
// the column shared, and every mutating path — set, append, delete, sort,
// truncate — copies the backing vectors of the affected column first
// (ensureOwned). The boundary is per column: adding a column or rewriting one
// column's cells never copies its siblings.
//
// Views. A column that only has read-only views over its current cells
// (Table.View) is marked viewed, not shared: appending to it lands past every
// view's cells and copies nothing (ensureAppendable), any other write copies
// first as above.

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

func newColumn(capHint int) *column {
	if capHint < 0 {
		capHint = 0
	}
	return &column{tags: make([]uint8, 0, capHint)}
}

// newNullColumn returns a column of n NULL cells (the ADD COLUMN fill).
func newNullColumn(n int) *column {
	return &column{tags: make([]uint8, n)} // TypeNull == 0
}

func (c *column) len() int { return len(c.tags) }

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
		c.strs[n-1] = v.S
	case TypeIntArray:
		if c.arrs == nil {
			c.arrs = make([][]int64, n)
		}
		c.arrs[n-1] = v.A
	}
}

// value materializes cell i. Integer-array cells share their element slice
// with the column storage (the same immutable-once-inserted discipline rows
// have always followed); Clone the row before mutating through it.
func (c *column) value(i int) Value {
	switch ValueType(c.tags[i]) {
	case TypeInt:
		return Value{Type: TypeInt, I: c.ints[i]}
	case TypeFloat:
		return Value{Type: TypeFloat, F: c.floats[i]}
	case TypeString:
		return Value{Type: TypeString, S: c.strs[i]}
	case TypeBool:
		return Value{Type: TypeBool, B: c.ints[i] != 0}
	case TypeIntArray:
		return Value{Type: TypeIntArray, A: c.arrs[i]}
	default:
		return Value{}
	}
}

// identical is Value.Identical between cell i and v without materializing the
// cell.
func (c *column) identical(i int, v *Value) bool {
	if ValueType(c.tags[i]) != v.Type {
		return false
	}
	switch v.Type {
	case TypeInt:
		return c.ints[i] == v.I
	case TypeBool:
		return (c.ints[i] != 0) == v.B
	case TypeFloat:
		return math.Float64bits(c.floats[i]) == math.Float64bits(v.F)
	case TypeString:
		return c.strs[i] == v.S
	case TypeIntArray:
		return slices.Equal(c.arrs[i], v.A)
	default:
		return true
	}
}

// asInt is Value.AsInt without materializing the Value.
func (c *column) asInt(i int) int64 {
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
		c.strs[i] = v.S
	case TypeIntArray:
		ensureLaneArr(c)
		c.arrs[i] = v.A
	}
}

// ensureOwned copies the backing vectors when they are shared with another
// table, establishing this table's private copy — the per-column
// copy-on-write boundary. Integer-array cells keep sharing their element
// slices (cells are replaced wholesale, never edited in place).
func (c *column) ensureOwned() {
	if atomic.LoadUint32(&c.shared) == 0 {
		return
	}
	c.tags = append([]uint8(nil), c.tags...)
	if c.ints != nil {
		c.ints = append([]int64(nil), c.ints...)
	}
	if c.floats != nil {
		c.floats = append([]float64(nil), c.floats...)
	}
	if c.strs != nil {
		c.strs = append([]string(nil), c.strs...)
	}
	if c.arrs != nil {
		c.arrs = append([][]int64(nil), c.arrs...)
	}
	atomic.StoreUint32(&c.shared, 0)
}

// ensureAppendable is ensureOwned for a caller about to append: cells past
// the current length are no view's, so only a column shared outright copies.
func (c *column) ensureAppendable() {
	if c.isShared() {
		c.ensureOwned()
	}
}

// share returns a second column over the same backing vectors, marking both
// sides shared so either side's next mutation copies first. The receiver's
// flag is stored atomically because concurrent checkouts share the same
// source column holding no lock.
func (c *column) share() *column {
	atomic.StoreUint32(&c.shared, colShared)
	return c.alias()
}

// view returns a column over the receiver's current cells for reading only
// and marks the receiver viewed, unless it is shared already. The view itself
// counts as shared: whatever is gathered from it copies before it writes.
func (c *column) view() *column {
	atomic.CompareAndSwapUint32(&c.shared, 0, colViewed)
	return c.alias()
}

func (c *column) alias() *column {
	return &column{
		tags:   c.tags,
		ints:   c.ints,
		floats: c.floats,
		strs:   c.strs,
		arrs:   c.arrs,
		shared: colShared,
	}
}

// copyOwned returns a private copy of the column (fresh backing vectors;
// integer-array elements still shared — use deepCopy for a full clone).
func (c *column) copyOwned() *column {
	out := &column{tags: append([]uint8(nil), c.tags...)}
	if c.ints != nil {
		out.ints = append([]int64(nil), c.ints...)
	}
	if c.floats != nil {
		out.floats = append([]float64(nil), c.floats...)
	}
	if c.strs != nil {
		out.strs = append([]string(nil), c.strs...)
	}
	if c.arrs != nil {
		out.arrs = append([][]int64(nil), c.arrs...)
	}
	return out
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

// gather returns a new column holding the cells at the selected positions.
func (c *column) gather(sel Selection) *column {
	out := &column{tags: make([]uint8, len(sel))}
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

// appendFrom appends the selected cells of src lane by lane (no per-cell
// Value boxing). The caller must have called ensureAppendable. Lane values of
// cells whose tag names a different type are zero values on both sides, so
// copying them verbatim is exact.
func (c *column) appendFrom(src *column, sel Selection) {
	base := len(c.tags)
	for _, i := range sel {
		c.tags = append(c.tags, src.tags[i])
	}
	c.ints = appendLane(c.ints, src.ints, sel, base)
	c.floats = appendLane(c.floats, src.floats, sel, base)
	c.strs = appendLane(c.strs, src.strs, sel, base)
	c.arrs = appendLane(c.arrs, src.arrs, sel, base)
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

// truncate keeps the first n cells. The caller must have called ensureOwned.
func (c *column) truncate(n int) {
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
	for i, tag := range c.tags {
		switch ValueType(tag) {
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

// compare three-way compares cell i against v with exactly Value.Compare's
// rules (NULL sorts first, integers and booleans compare exactly, a float
// against another numeric type as floats, integer arrays lexicographically,
// everything else on the string rendering). vf and vs are the precomputed float
// and string renderings of v, so the generic scan never rematerializes them per
// cell.
func (c *column) compare(i int, v Value, vf float64, vs string) int {
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
		return compareIntSlices(c.arrs[i], v.A)
	}
	if tag == TypeString {
		return strings.Compare(c.strs[i], vs)
	}
	return strings.Compare(c.asString(i), vs)
}

// filter evaluates `cell op v` over the whole column (sel == nil) or over an
// existing selection, which it refines in place, returning the surviving
// positions. A numeric literal runs the typed kernel over the lane it compares
// against directly; anything else compares cell by cell.
func (c *column) filter(op CmpOp, v Value, sel Selection) Selection {
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

// filterLane is filter's typed kernel: cells tagged typ compare their lane
// value straight against b, which is v on that lane; every other cell — NULL,
// a stray string, the other numeric type — goes through compare, so the
// result is Value.Compare's. keep has bit k+1 set for each three-way result k
// the operator accepts.
func filterLane[T int64 | float64](c *column, lane []T, typ ValueType, b T, op CmpOp, v Value, sel Selection) Selection {
	keep := op.keep()
	tags, want := c.tags, uint8(typ)
	lane = lane[:len(tags)]
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
