package cvd

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/recset"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// This file implements the versioned query shortcuts OrpheusDB exposes on
// top of SQL (Section 3.3.2): querying records of specific versions with
// predicates and limits, aggregation grouped by version, the version-graph
// functional primitives ancestor/descendant/parent, and the v_diff /
// v_intersect aggregation functions.

// Predicate filters data rows; a nil predicate accepts every row. Opaque
// predicates (arbitrary Go functions, see RowPredicate) are evaluated row at
// a time; predicates built by NamedPredicate carry their column comparison
// in structured form, so the versioned query shortcuts push them down to the
// vectorized relstore scans (see selectFrom) instead of materializing and
// testing every row.
type Predicate interface {
	// Match reports whether the row satisfies the predicate. The row is valid
	// for the call only: the select refills it for the next record.
	Match(relstore.Row) bool
}

// RowPredicate wraps an arbitrary row function as an (opaque) Predicate.
type RowPredicate func(relstore.Row) bool

// Match implements Predicate.
func (f RowPredicate) Match(r relstore.Row) bool { return f(r) }

// columnPredicate is a single column comparison with the operator resolved
// to a compiled relstore.CmpOp once at construction — the per-row work is a
// three-way compare plus a jump table, and the comparison is available in
// structured form for vectorized pushdown.
type columnPredicate struct {
	column string
	idx    int // column position in the CVD schema at construction time
	op     relstore.CmpOp
	value  relstore.Value
}

// Match implements Predicate (the row-at-a-time fallback).
func (p *columnPredicate) Match(r relstore.Row) bool {
	if p.idx >= len(r) {
		return false
	}
	return p.op.Eval(r[p.idx].Compare(p.value))
}

// multiColumnPredicate is the conjunction of compiled column comparisons;
// its pushdown form is the chained selection refinement of
// relstore.Table.FilterVecSet.
type multiColumnPredicate struct {
	preds []*columnPredicate
}

// Match implements Predicate (the row-at-a-time fallback).
func (p *multiColumnPredicate) Match(r relstore.Row) bool {
	for _, cp := range p.preds {
		if !cp.Match(r) {
			return false
		}
	}
	return true
}

// NamedPredicate builds a predicate comparing a named column against a value
// with the given comparison operator ("=", "!=", "<", "<=", ">", ">=").
// Unknown operators yield a predicate that matches nothing, mirroring the
// historical behavior.
func (c *CVD) NamedPredicate(column, op string, value relstore.Value) (Predicate, error) {
	idx, err := c.columnIndex(column)
	if err != nil {
		return nil, err
	}
	cmp, ok := relstore.ParseCmpOp(op)
	if !ok {
		return RowPredicate(func(relstore.Row) bool { return false }), nil
	}
	return &columnPredicate{column: column, idx: idx, op: cmp, value: value}, nil
}

// columnIndex resolves a named data column against the schema in force.
func (c *CVD) columnIndex(column string) (int, error) {
	st := c.read()
	if err := c.known(st); err != nil {
		return 0, err
	}
	idx := st.schema.ColumnIndex(column)
	if idx < 0 {
		return 0, fmt.Errorf("cvd: %s: unknown column %q", c.name, column)
	}
	return idx, nil
}

// ColumnComparison specifies one comparison of a compiled multi-predicate
// (NamedPredicateAll).
type ColumnComparison struct {
	Column string
	Op     string
	Value  relstore.Value
}

// NamedPredicateAll builds the conjunction of column comparisons, each
// compiled once like NamedPredicate. When pushed down, the comparisons
// evaluate as a chained selection refinement: the first reads the selected
// versions' rows of its column, each subsequent one only the surviving rows.
func (c *CVD) NamedPredicateAll(comparisons []ColumnComparison) (Predicate, error) {
	if len(comparisons) == 0 {
		return nil, fmt.Errorf("cvd: %s: NamedPredicateAll requires at least one comparison", c.name)
	}
	preds := make([]*columnPredicate, 0, len(comparisons))
	for _, cmp := range comparisons {
		p, err := c.NamedPredicate(cmp.Column, cmp.Op, cmp.Value)
		if err != nil {
			return nil, err
		}
		cp, ok := p.(*columnPredicate)
		if !ok {
			// Unknown operator: the whole conjunction matches nothing.
			return RowPredicate(func(relstore.Row) bool { return false }), nil
		}
		preds = append(preds, cp)
	}
	if len(preds) == 1 {
		return preds[0], nil
	}
	return &multiColumnPredicate{preds: preds}, nil
}

// comparisons returns pred as the column comparisons catalog's lanes evaluate:
// none for a nil predicate, ok=false for an opaque one.
func comparisons(catalog *relstore.Table, pred Predicate) (preds []relstore.ColPred, ok bool) {
	var cps []*columnPredicate
	switch p := pred.(type) {
	case nil:
		return nil, true
	case *columnPredicate:
		cps = []*columnPredicate{p}
	case *multiColumnPredicate:
		cps = p.preds
	default:
		return nil, false
	}
	preds = make([]relstore.ColPred, 0, len(cps))
	for _, cp := range cps {
		// Resolve the column against the catalog (rid first, then the data
		// attributes): the registered position may predate schema evolution.
		if !catalog.Schema.HasColumn(cp.column) {
			return nil, false
		}
		preds = append(preds, relstore.ColPred{Col: cp.column, Op: cp.op, Value: cp.value})
	}
	return preds, true
}

// selectFrom is the plan SelectVersions, ScanVersions and AggregateByVersion
// share, run on one published state. It appends to sel the catalog positions
// (record r is row r-1) of the listed versions' records that satisfy pred,
// version after version and ascending within one, until sel holds limit of
// them when limit > 0; version i's records end at ends[i]. Each version's
// record set is walked straight into selections. A predicate of column
// comparisons refines them on the catalog's lanes, so the select costs its
// versions, not the catalog, and stops at the limit. An opaque predicate is
// evaluated row at a time, on one row refilled from the catalog for each
// record. No row of the answer is materialized.
func (c *CVD) selectFrom(st *readState, sel relstore.Selection, versions []vgraph.VersionID, pred Predicate, limit int) (relstore.Selection, []int, error) {
	if err := c.known(st, versions...); err != nil {
		return nil, nil, err
	}
	var total int64
	for _, v := range versions {
		total += st.sets[v-1].Len()
	}
	if limit > 0 && sel == nil {
		sel = make(relstore.Selection, 0, min(int64(limit), total))
	}
	preds, pushed := comparisons(st.catalog, pred)
	var row relstore.Row
	if !pushed {
		row = make(relstore.Row, len(st.schema.Columns))
	}
	ends := make([]int, len(versions))
	for i, v := range versions {
		set := st.sets[v-1]
		switch {
		case limit > 0 && len(sel) >= limit:
		case !pushed:
			set.ForEach(func(rid int64) bool {
				for j := range row {
					row[j] = st.catalog.At(int(rid-1), j+1)
				}
				if pred.Match(row) {
					sel = append(sel, int32(rid-1))
				}
				return limit <= 0 || len(sel) < limit
			})
		default:
			var err error
			if sel, err = st.catalog.FilterVecSet(sel, set, preds, limit); err != nil {
				return nil, nil, err
			}
		}
		ends[i] = len(sel)
	}
	return sel, ends, nil
}

// VersionedRow pairs a record with the version it was selected from.
type VersionedRow struct {
	Version vgraph.VersionID
	RID     vgraph.RecordID
	Row     relstore.Row
}

// Answer is a select's answer as the catalog stores it: positions in the
// record catalog, each with the version it was selected from, and no row.
type Answer struct {
	// Catalog is the record catalog: the rid column, then the data
	// attributes, whose names are the answer's columns; record r is row r-1.
	Catalog *relstore.Table
	// Sel holds the selected positions in Catalog, version after version and
	// ascending within one.
	Sel relstore.Selection
	// Versions are the versions selected from, as listed by the caller, and
	// Sel[Ends[i-1]:Ends[i]] are the positions selected from Versions[i]
	// (Ends[-1] read as 0). A version with no match repeats its predecessor's
	// end.
	Versions []vgraph.VersionID
	Ends     []int
}

// VersionOf returns the index i in Versions of the version Sel[k] was
// selected from, given the index of Sel[k-1]'s (0 for k == 0): walking Sel in
// order with it visits Versions once.
func (a *Answer) VersionOf(k, i int) int {
	for k == a.Ends[i] {
		i++
	}
	return i
}

// Rows boxes the answer: one row per position, the data attributes only,
// materialized column-wise as slices of one block of cells.
func (a *Answer) Rows() []VersionedRow {
	block, width := a.Catalog.RowBlock(a.Sel, 1)
	out := make([]VersionedRow, len(a.Sel))
	i := 0
	for k, pos := range a.Sel {
		i = a.VersionOf(k, i)
		// Capped, so that appending to a row cannot write into the next.
		row := block[k*width : (k+1)*width : (k+1)*width]
		out[k] = VersionedRow{Version: a.Versions[i], RID: vgraph.RecordID(pos) + 1, Row: row}
	}
	return out
}

// SelectVersions runs the select ScanVersions runs and returns its answer
// unboxed, over the published view of the record catalog it selected from.
// Later commits change neither the view, its schema included, nor the
// selection, so the caller reads the answer's cells off the catalog's lanes
// (the HTTP server writes its JSON from them), and the columns it names are
// the ones its cells were selected from.
func (c *CVD) SelectVersions(versions []vgraph.VersionID, pred Predicate, limit int) (Answer, error) {
	st := c.read()
	sel, ends, err := c.selectFrom(st, nil, versions, pred, limit)
	if err != nil {
		return Answer{}, err
	}
	return Answer{Catalog: st.catalog, Sel: sel, Versions: versions, Ends: ends}, nil
}

// ScanVersions evaluates `SELECT * FROM VERSION v1, v2, ... OF CVD c WHERE
// pred LIMIT limit`: it returns the (version, record) pairs of the listed
// versions whose data satisfies pred. limit <= 0 means no limit. It is
// SelectVersions boxed (Answer.Rows).
func (c *CVD) ScanVersions(versions []vgraph.VersionID, pred Predicate, limit int) ([]VersionedRow, error) {
	a, err := c.SelectVersions(versions, pred, limit)
	if err != nil {
		return nil, err
	}
	return a.Rows(), nil
}

// Aggregator folds the records of one version into a single value. catalog is
// the CVD's record catalog — the rid column, then the data attributes; record
// r is row r-1 — and sel the positions of the records to fold, ascending. An
// aggregator reads the cells it needs off the catalog's lanes and boxes no
// row; it must not write the catalog or keep it past the call.
type Aggregator func(catalog *relstore.Table, sel relstore.Selection) relstore.Value

// CountAgg counts rows.
func CountAgg() Aggregator {
	return func(_ *relstore.Table, sel relstore.Selection) relstore.Value { return relstore.Int(int64(len(sel))) }
}

// SumAgg sums a named column (resolved against the CVD schema at call time).
func (c *CVD) SumAgg(column string) (Aggregator, error) {
	idx, err := c.columnIndex(column)
	if err != nil {
		return nil, err
	}
	return func(catalog *relstore.Table, sel relstore.Selection) relstore.Value {
		var sum float64
		for _, p := range sel {
			sum += catalog.At(int(p), idx+1).AsFloat()
		}
		return relstore.Float(sum)
	}, nil
}

// AvgAgg averages a named column.
func (c *CVD) AvgAgg(column string) (Aggregator, error) {
	sum, err := c.SumAgg(column)
	if err != nil {
		return nil, err
	}
	return func(catalog *relstore.Table, sel relstore.Selection) relstore.Value {
		if len(sel) == 0 {
			return relstore.Null()
		}
		return relstore.Float(sum(catalog, sel).AsFloat() / float64(len(sel)))
	}, nil
}

// MaxAgg returns the maximum of a named column.
func (c *CVD) MaxAgg(column string) (Aggregator, error) {
	idx, err := c.columnIndex(column)
	if err != nil {
		return nil, err
	}
	return func(catalog *relstore.Table, sel relstore.Selection) relstore.Value {
		best := relstore.Null()
		for _, p := range sel {
			if v := catalog.At(int(p), idx+1); best.IsNull() || v.Compare(best) > 0 {
				best = v
			}
		}
		return best
	}, nil
}

// AggregateByVersion evaluates `SELECT vid, agg(...) FROM CVD c [WHERE pred]
// GROUP BY vid` over the given versions (all versions when versions is nil).
// It selects one version at a time into one selection, which it folds, so it
// holds the positions of the largest version, never a row.
func (c *CVD) AggregateByVersion(versions []vgraph.VersionID, pred Predicate, agg Aggregator) (map[vgraph.VersionID]relstore.Value, error) {
	if agg == nil {
		return nil, fmt.Errorf("cvd: %s: nil aggregator", c.name)
	}
	st := c.read()
	if err := c.known(st); err != nil {
		return nil, err
	}
	if versions == nil {
		versions = versionIDs(len(st.sets))
	}
	out := make(map[vgraph.VersionID]relstore.Value, len(versions))
	var sel relstore.Selection
	for i, v := range versions {
		var err error
		if sel, _, err = c.selectFrom(st, sel[:0], versions[i:i+1], pred, 0); err != nil {
			return nil, err
		}
		out[v] = agg(st.catalog, sel)
	}
	return out, nil
}

// VersionsWhere returns the versions whose per-version aggregate satisfies
// test (e.g. "versions where count of tuples with protein1 = X exceeds 50").
func (c *CVD) VersionsWhere(pred Predicate, agg Aggregator, test func(relstore.Value) bool) ([]vgraph.VersionID, error) {
	byVersion, err := c.AggregateByVersion(nil, pred, agg)
	if err != nil {
		return nil, err
	}
	var out []vgraph.VersionID
	for v, val := range byVersion {
		if test(val) {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Ancestors returns all ancestors of v, ascending (the ancestor(vid)
// primitive). A parent's id is always below its child's, so one pass down
// the metadata from v marks them.
func (c *CVD) Ancestors(v vgraph.VersionID) []vgraph.VersionID {
	st := c.read()
	if !st.has(v) {
		return nil
	}
	in := make([]bool, v) // in[u-1]: u is v or one of its ancestors
	in[v-1] = true
	var out []vgraph.VersionID
	for u := v; u >= 1; u-- {
		if !in[u-1] {
			continue
		}
		if u != v {
			out = append(out, u)
		}
		for _, p := range st.metas[u-1].Parents {
			in[p-1] = true
		}
	}
	slices.Reverse(out)
	return out
}

// Descendants returns all descendants of v, ascending (the descendant(vid)
// primitive): one pass up the metadata from v.
func (c *CVD) Descendants(v vgraph.VersionID) []vgraph.VersionID {
	st := c.read()
	if !st.has(v) {
		return nil
	}
	in := make([]bool, len(st.metas)) // in[u-1]: u is v or one of its descendants
	in[v-1] = true
	var out []vgraph.VersionID
	for _, m := range st.metas[v:] {
		for _, p := range m.Parents {
			if in[p-1] {
				in[m.ID-1] = true
				out = append(out, m.ID)
				break
			}
		}
	}
	return out
}

// Parents returns the direct parents of v (the parent(vid) primitive).
func (c *CVD) Parents(v vgraph.VersionID) []vgraph.VersionID {
	st := c.read()
	if !st.has(v) {
		return nil
	}
	return slices.Clone(st.metas[v-1].Parents)
}

// union returns the union of the listed versions' record sets in st.
func (c *CVD) union(st *readState, versions []vgraph.VersionID) (*recset.Set, error) {
	if err := c.known(st, versions...); err != nil {
		return nil, err
	}
	out := recset.New()
	for _, v := range versions {
		out.UnionWith(st.sets[v-1])
	}
	return out, nil
}

// VDiff implements v_diff(A, B): the record ids present in any version of A
// but in no version of B, as a compressed-set difference of the two unions.
func (c *CVD) VDiff(a, b []vgraph.VersionID) ([]vgraph.RecordID, error) {
	st := c.read()
	ua, err := c.union(st, a)
	if err != nil {
		return nil, err
	}
	ub, err := c.union(st, b)
	if err != nil {
		return nil, err
	}
	return vgraph.RecordIDs(recset.AndNot(ua, ub)), nil
}

// VIntersect implements v_intersect(A): the record ids present in every
// listed version, as a running compressed-set intersection.
func (c *CVD) VIntersect(versions []vgraph.VersionID) ([]vgraph.RecordID, error) {
	st := c.read()
	if err := c.known(st, versions...); err != nil || len(versions) == 0 {
		return nil, err
	}
	inter := st.sets[versions[0]-1]
	for _, v := range versions[1:] {
		if inter.IsEmpty() {
			break
		}
		inter = recset.And(inter, st.sets[v-1])
	}
	return vgraph.RecordIDs(inter), nil
}
