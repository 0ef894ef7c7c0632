package vquel

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/relstore"
)

// Result is the output of a VQuel query: named columns and rows of values.
type Result struct {
	Columns []string
	Rows    [][]relstore.Value
}

// value is anything an iterator can be bound to during evaluation.
type value struct {
	version  *Version
	relation *Relation
	tupleRel *Relation
	tupleIdx int // the tuple's ordinal in its relation, its `id`
	tuplePos int // its row in the relation's catalog
	scalar   relstore.Value
	isScalar bool
}

func versionValue(v *Version) value   { return value{version: v} }
func relationValue(r *Relation) value { return value{relation: r} }
func tupleValue(r *Relation, idx, pos int) value {
	return value{tupleRel: r, tupleIdx: idx, tuplePos: pos}
}
func scalarValue(v relstore.Value) value { return value{scalar: v, isScalar: true} }

// key returns a stable identity string for grouping and dedup.
func (v value) key() string {
	switch {
	case v.version != nil:
		return "V:" + v.version.ID
	case v.relation != nil:
		return "R:" + v.relation.Name
	case v.tupleRel != nil:
		return fmt.Sprintf("T:%s:%d", v.tupleRel.Name, v.tupleIdx)
	default:
		return "S:" + v.scalar.AsString()
	}
}

// render converts a value to a relstore scalar for output and comparisons.
func (v value) render() relstore.Value {
	switch {
	case v.isScalar:
		return v.scalar
	case v.version != nil:
		return relstore.Str(v.version.ID)
	case v.relation != nil:
		return relstore.Str(v.relation.Name)
	case v.tupleRel != nil:
		cat := v.tupleRel.Catalog
		parts := make([]string, len(cat.Schema.Columns)-1)
		for i := range parts {
			parts[i] = cat.StringAt(v.tuplePos, i+1)
		}
		return relstore.Str(strings.Join(parts, "|"))
	default:
		return relstore.Null()
	}
}

// Evaluator runs parsed queries against a repository.
type Evaluator struct {
	repo *Repository
}

// NewEvaluator creates an evaluator over a repository.
func NewEvaluator(repo *Repository) *Evaluator { return &Evaluator{repo: repo} }

// Run parses and evaluates a VQuel query string.
func (e *Evaluator) Run(query string) (*Result, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return e.Eval(q)
}

type binding map[string]value

// Eval evaluates a parsed query.
func (e *Evaluator) Eval(q *Query) (*Result, error) {
	iterators := make([]string, 0, len(q.Ranges))
	for _, r := range q.Ranges {
		iterators = append(iterators, r.Iterator)
	}
	// Enumerate all bindings of the declared iterators.
	var bindings []binding
	var enumerate func(i int, cur binding) error
	enumerate = func(i int, cur binding) error {
		if i == len(q.Ranges) {
			cp := make(binding, len(cur))
			for k, v := range cur {
				cp[k] = v
			}
			bindings = append(bindings, cp)
			return nil
		}
		domain, err := e.evalPath(q.Ranges[i].Set, cur)
		if err != nil {
			return err
		}
		for _, v := range domain {
			cur[q.Ranges[i].Iterator] = v
			if err := enumerate(i+1, cur); err != nil {
				return err
			}
		}
		delete(cur, q.Ranges[i].Iterator)
		return nil
	}
	if err := enumerate(0, binding{}); err != nil {
		return nil, err
	}

	// Which iterators are aggregated? Those that appear in aggregate paths
	// but not in plain targets, plain where operands, or sort-by.
	aggregated := map[string]bool{}
	plain := map[string]bool{}
	markPath := func(p *PathExpr, m map[string]bool) {
		if p != nil {
			m[p.Base] = true
		}
	}
	for _, t := range q.Retrieve.Targets {
		if t.Agg != nil {
			markPath(&t.Agg.Path, aggregated)
		} else {
			markPath(t.Path, plain)
		}
	}
	var scanBool func(b *BoolExpr)
	scanBool = func(b *BoolExpr) {
		if b == nil {
			return
		}
		if b.Leaf != nil {
			for _, op := range []Operand{b.Leaf.Left, b.Leaf.Right} {
				if op.Agg != nil {
					markPath(&op.Agg.Path, aggregated)
				} else if op.Path != nil {
					markPath(op.Path, plain)
				}
			}
		}
		scanBool(b.Left)
		scanBool(b.Right)
	}
	scanBool(q.Retrieve.Where)
	markPath(q.Retrieve.SortBy, plain)
	// Free iterators: declared, not purely aggregated.
	var free []string
	for _, it := range iterators {
		if plain[it] || !aggregated[it] {
			free = append(free, it)
		}
	}

	// Group bindings by the free iterators.
	type group struct {
		rep      binding
		bindings []binding
	}
	groups := map[string]*group{}
	var order []string
	for _, b := range bindings {
		var kb strings.Builder
		for _, it := range free {
			kb.WriteString(b[it].key())
			kb.WriteByte('\x1e')
		}
		k := kb.String()
		g, ok := groups[k]
		if !ok {
			g = &group{rep: b}
			groups[k] = g
			order = append(order, k)
		}
		g.bindings = append(g.bindings, b)
	}

	res := &Result{}
	for _, t := range q.Retrieve.Targets {
		res.Columns = append(res.Columns, t.As)
	}
	type sortable struct {
		row []relstore.Value
		key relstore.Value
	}
	var rows []sortable
	seen := map[string]bool{}
	for _, k := range order {
		g := groups[k]
		// Evaluate the where clause at group level.
		if q.Retrieve.Where != nil {
			ok, err := e.evalBool(q.Retrieve.Where, g.rep, g.bindings)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		row := make([]relstore.Value, 0, len(q.Retrieve.Targets))
		for _, t := range q.Retrieve.Targets {
			if t.Agg != nil {
				v, err := e.evalAggregate(t.Agg, g.bindings)
				if err != nil {
					return nil, err
				}
				row = append(row, v)
				continue
			}
			vals, err := e.evalPath(*t.Path, g.rep)
			if err != nil {
				return nil, err
			}
			if len(vals) == 0 {
				row = append(row, relstore.Null())
			} else {
				row = append(row, vals[0].render())
			}
		}
		var sortKey relstore.Value
		if q.Retrieve.SortBy != nil {
			vals, err := e.evalPath(*q.Retrieve.SortBy, g.rep)
			if err != nil {
				return nil, err
			}
			if len(vals) > 0 {
				sortKey = vals[0].render()
			}
		}
		if q.Retrieve.Unique {
			var kb strings.Builder
			for _, v := range row {
				kb.WriteString(v.AsString())
				kb.WriteByte('\x1e')
			}
			if seen[kb.String()] {
				continue
			}
			seen[kb.String()] = true
		}
		rows = append(rows, sortable{row: row, key: sortKey})
	}
	if q.Retrieve.SortBy != nil {
		sort.SliceStable(rows, func(i, j int) bool {
			cmp := rows[i].key.Compare(rows[j].key)
			if q.Retrieve.SortDsc {
				return cmp > 0
			}
			return cmp < 0
		})
	}
	for _, r := range rows {
		res.Rows = append(res.Rows, r.row)
	}
	return res, nil
}

// evalPath evaluates a path expression under a binding, returning the set of
// values it denotes.
func (e *Evaluator) evalPath(p PathExpr, b binding) ([]value, error) {
	var current []value
	if strings.EqualFold(p.Base, "Version") || strings.EqualFold(p.Base, "Versions") {
		for _, v := range e.repo.Versions() {
			current = append(current, versionValue(v))
		}
	} else if bound, ok := b[p.Base]; ok {
		current = []value{bound}
	} else {
		return nil, fmt.Errorf("vquel: unknown iterator or set %q", p.Base)
	}
	for _, seg := range p.Segments {
		var next []value
		for _, v := range current {
			out, err := e.step(v, seg, b)
			if err != nil {
				return nil, err
			}
			next = append(next, out...)
		}
		current = next
	}
	return current, nil
}

// step applies one path segment to a value.
func (e *Evaluator) step(v value, seg PathSegment, b binding) ([]value, error) {
	// A nameless segment is an inline filter applied to the current value.
	if seg.Name == "" {
		if seg.Filter == nil {
			return []value{v}, nil
		}
		ok, err := e.matchFilter(v, *seg.Filter, b)
		if err != nil {
			return nil, err
		}
		if ok {
			return []value{v}, nil
		}
		return nil, nil
	}
	name := seg.Name
	hops := 0
	if seg.Arg != nil {
		hops = *seg.Arg
	}
	filterAll := func(vals []value) ([]value, error) {
		if seg.Filter == nil {
			return vals, nil
		}
		var out []value
		for _, x := range vals {
			ok, err := e.matchFilter(x, *seg.Filter, b)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, x)
			}
		}
		return out, nil
	}
	switch {
	case v.version != nil:
		ver := v.version
		switch strings.ToLower(name) {
		case "relations", "relation":
			names := make([]string, 0, len(ver.Relations))
			for n := range ver.Relations {
				names = append(names, n)
			}
			sort.Strings(names)
			var out []value
			for _, n := range names {
				out = append(out, relationValue(ver.Relations[n]))
			}
			return filterAll(out)
		case "p":
			return filterAll(versionsToValues(ver.ancestors(hops)))
		case "d":
			return filterAll(versionsToValues(ver.descendants(hops)))
		case "n":
			return filterAll(versionsToValues(ver.neighborhood(hops)))
		case "parents":
			return filterAll(versionsToValues(ver.Parents))
		case "children":
			return filterAll(versionsToValues(ver.Children))
		case "id", "commit_id":
			return []value{scalarValue(relstore.Str(ver.ID))}, nil
		case "author":
			return []value{scalarValue(relstore.Str(ver.Author))}, nil
		case "msg", "commit_msg", "commit_message":
			return []value{scalarValue(relstore.Str(ver.Message))}, nil
		case "commit_ts", "creation_ts":
			return []value{scalarValue(relstore.Int(ver.CommitTS.Unix()))}, nil
		case "all":
			return []value{scalarValue(relstore.Str(ver.ID))}, nil
		default:
			// Treat an unknown segment as a relation name lookup, enabling
			// paths like Version(...).Employee.Tuples in extended syntax.
			if rel, ok := ver.Relations[name]; ok {
				return filterAll([]value{relationValue(rel)})
			}
			return nil, fmt.Errorf("vquel: version has no attribute or relation %q", name)
		}
	case v.relation != nil:
		rel := v.relation
		switch strings.ToLower(name) {
		case "tuples", "records":
			// A filter `column op literal` is evaluated on the catalog's
			// lanes over the record set, like a select's predicate; any
			// other filter tests the tuple values one at a time.
			preds, pushed := pushdownTupleFilter(rel, seg.Filter)
			sel, err := rel.Catalog.FilterVecSet(nil, rel.Records, preds, 0)
			if err != nil {
				return nil, err
			}
			// A tuple's id is its ordinal in the record set.
			out, i := make([]value, 0, len(sel)), 0
			rel.Records.ForEach(func(rid int64) bool {
				if len(out) < len(sel) && int64(sel[len(out)]) == rid-1 {
					out = append(out, tupleValue(rel, i, int(rid-1)))
				}
				i++
				return len(out) < len(sel)
			})
			if pushed {
				return out, nil
			}
			return filterAll(out)
		case "name":
			return []value{scalarValue(relstore.Str(rel.Name))}, nil
		case "changed":
			return []value{scalarValue(relstore.Bool(rel.Changed))}, nil
		case "version":
			// up-navigation is not tracked per relation; unsupported here.
			return nil, fmt.Errorf("vquel: Version(...) up-navigation from relations is not supported")
		default:
			return nil, fmt.Errorf("vquel: relation has no attribute %q", name)
		}
	case v.tupleRel != nil:
		rel := v.tupleRel
		switch strings.ToLower(name) {
		case "all":
			return []value{scalarValue(v.render())}, nil
		case "parents":
			var out []value
			for _, pIdx := range rel.Provenance[v.tupleIdx] {
				out = append(out, scalarValue(relstore.Int(int64(pIdx))))
			}
			return filterAll(out)
		case "id":
			return []value{scalarValue(relstore.Int(int64(v.tupleIdx)))}, nil
		default:
			// The Record entity is conceptually the union of all fields across
			// records (Figure 6.1), so a missing column reads as NULL rather
			// than erroring.
			idx := rel.column(name)
			if idx < 0 {
				return []value{scalarValue(relstore.Null())}, nil
			}
			return []value{scalarValue(rel.Catalog.At(v.tuplePos, idx))}, nil
		}
	case v.isScalar:
		// ".name" on a scalar (e.g. V.author.name) is the identity.
		if strings.EqualFold(name, "name") || strings.EqualFold(name, "all") {
			return []value{v}, nil
		}
		return nil, fmt.Errorf("vquel: cannot navigate %q from a scalar", name)
	default:
		return nil, fmt.Errorf("vquel: cannot navigate from an empty value")
	}
}

// pushdownTupleFilter recognizes inline tuple filters of the shape
// `column op literal` (either side) and returns them as the comparison the
// catalog's lanes evaluate (relstore.Table.FilterVecSet), flipping the
// operator when the literal is on the left. It declines (ok=false) anything it
// cannot prove equivalent to the row-at-a-time path: opaque paths, aggregate
// operands, the special tuple attributes (all/parents/id), unknown columns,
// and unknown operators — those keep their historical evaluation and errors.
func pushdownTupleFilter(rel *Relation, f *Comparison) ([]relstore.ColPred, bool) {
	if f == nil {
		return nil, false
	}
	op, ok := relstore.ParseCmpOp(f.Op)
	if !ok {
		return nil, false
	}
	if col, ok := bareColumn(rel, f.Left); ok && f.Right.Literal != nil {
		return []relstore.ColPred{{Col: col, Op: op, Value: literalValue(*f.Right.Literal)}}, true
	}
	if col, ok := bareColumn(rel, f.Right); ok && f.Left.Literal != nil {
		return []relstore.ColPred{{Col: col, Op: flipCmpOp(op), Value: literalValue(*f.Left.Literal)}}, true
	}
	return nil, false
}

// bareColumn reports whether the operand is a segment-free path naming a
// real (non-special) column of the relation.
func bareColumn(rel *Relation, op Operand) (string, bool) {
	if op.Path == nil || op.Agg != nil || op.Literal != nil || len(op.Path.Segments) != 0 {
		return "", false
	}
	name := op.Path.Base
	switch strings.ToLower(name) {
	case "all", "parents", "id":
		return "", false // special tuple attributes, not columns
	}
	if rel.column(name) < 0 {
		return "", false
	}
	return name, true
}

// flipCmpOp mirrors an operator across the comparison (literal op column →
// column flipped-op literal).
func flipCmpOp(op relstore.CmpOp) relstore.CmpOp {
	switch op {
	case relstore.CmpLT:
		return relstore.CmpGT
	case relstore.CmpLE:
		return relstore.CmpGE
	case relstore.CmpGT:
		return relstore.CmpLT
	case relstore.CmpGE:
		return relstore.CmpLE
	default:
		return op
	}
}

func versionsToValues(vs []*Version) []value {
	out := make([]value, 0, len(vs))
	for _, v := range vs {
		out = append(out, versionValue(v))
	}
	return out
}

// matchFilter evaluates an inline filter against a value: the filter's left
// path is interpreted relative to the value.
func (e *Evaluator) matchFilter(v value, cmp Comparison, b binding) (bool, error) {
	left, err := e.operandRelative(cmp.Left, v, b)
	if err != nil {
		return false, err
	}
	right, err := e.operandRelative(cmp.Right, v, b)
	if err != nil {
		return false, err
	}
	return compareValues(left, cmp.Op, right)
}

// operandRelative resolves an operand either as a literal, or as a path
// whose base is an attribute of the current value (e.g. name = "Employee"),
// or as a path over the enclosing binding.
func (e *Evaluator) operandRelative(op Operand, v value, b binding) (relstore.Value, error) {
	if op.Literal != nil {
		return literalValue(*op.Literal), nil
	}
	if op.Agg != nil {
		return relstore.Null(), fmt.Errorf("vquel: aggregates are not allowed in inline filters")
	}
	if op.Path == nil {
		return relstore.Null(), fmt.Errorf("vquel: empty operand")
	}
	// Try the path as relative to the current value first.
	rel := PathSegment{Name: op.Path.Base}
	vals, err := e.step(v, rel, b)
	if err == nil && len(vals) > 0 && len(op.Path.Segments) == 0 {
		return vals[0].render(), nil
	}
	// Fall back to an absolute path over the binding.
	abs, absErr := e.evalPath(*op.Path, b)
	if absErr != nil {
		if err != nil {
			return relstore.Null(), err
		}
		return relstore.Null(), absErr
	}
	if len(abs) == 0 {
		return relstore.Null(), nil
	}
	return abs[0].render(), nil
}

func literalValue(l Literal) relstore.Value {
	if l.IsString {
		if ts, err := time.Parse("01/02/2006", l.S); err == nil {
			return relstore.Int(ts.Unix())
		}
		return relstore.Str(l.S)
	}
	if l.N == float64(int64(l.N)) {
		return relstore.Int(int64(l.N))
	}
	return relstore.Float(l.N)
}

func compareValues(a relstore.Value, op string, b relstore.Value) (bool, error) {
	cmp, ok := relstore.ParseCmpOp(op)
	if !ok {
		return false, fmt.Errorf("vquel: unknown comparison operator %q", op)
	}
	return cmp.Eval(a.Compare(b)), nil
}

// evalBool evaluates a boolean expression for a group: plain operands are
// resolved against the representative binding, aggregate operands over all
// bindings of the group.
func (e *Evaluator) evalBool(b *BoolExpr, rep binding, group []binding) (bool, error) {
	if b == nil {
		return true, nil
	}
	switch b.Op {
	case "and":
		l, err := e.evalBool(b.Left, rep, group)
		if err != nil || !l {
			return false, err
		}
		return e.evalBool(b.Right, rep, group)
	case "or":
		l, err := e.evalBool(b.Left, rep, group)
		if err != nil {
			return false, err
		}
		if l {
			return true, nil
		}
		return e.evalBool(b.Right, rep, group)
	case "not":
		l, err := e.evalBool(b.Left, rep, group)
		return !l, err
	}
	left, err := e.evalOperandGroup(b.Leaf.Left, rep, group)
	if err != nil {
		return false, err
	}
	right, err := e.evalOperandGroup(b.Leaf.Right, rep, group)
	if err != nil {
		return false, err
	}
	return compareValues(left, b.Leaf.Op, right)
}

func (e *Evaluator) evalOperandGroup(op Operand, rep binding, group []binding) (relstore.Value, error) {
	switch {
	case op.Literal != nil:
		return literalValue(*op.Literal), nil
	case op.Agg != nil:
		return e.evalAggregate(op.Agg, group)
	case op.Path != nil:
		vals, err := e.evalPath(*op.Path, rep)
		if err != nil {
			return relstore.Null(), err
		}
		if len(vals) == 0 {
			return relstore.Null(), nil
		}
		return vals[0].render(), nil
	default:
		return relstore.Null(), fmt.Errorf("vquel: empty operand")
	}
}

// evalAggregate computes an aggregate over the bindings of a group.
func (e *Evaluator) evalAggregate(agg *Aggregate, group []binding) (relstore.Value, error) {
	var count int64
	var sum float64
	var min, max relstore.Value
	seen := map[string]bool{}
	for _, b := range group {
		if agg.Where != nil {
			ok, err := e.evalBool(agg.Where, b, []binding{b})
			if err != nil {
				return relstore.Null(), err
			}
			if !ok {
				continue
			}
		}
		vals, err := e.evalPath(agg.Path, b)
		if err != nil {
			return relstore.Null(), err
		}
		for _, v := range vals {
			k := v.key()
			if seen[k] {
				continue
			}
			seen[k] = true
			count++
			r := v.render()
			sum += r.AsFloat()
			if min.IsNull() || r.Compare(min) < 0 {
				min = r
			}
			if max.IsNull() || r.Compare(max) > 0 {
				max = r
			}
		}
	}
	switch agg.Func {
	case "count":
		return relstore.Int(count), nil
	case "sum":
		return relstore.Float(sum), nil
	case "avg":
		if count == 0 {
			return relstore.Null(), nil
		}
		return relstore.Float(sum / float64(count)), nil
	case "min":
		return min, nil
	case "max":
		return max, nil
	default:
		return relstore.Null(), fmt.Errorf("vquel: unknown aggregate %q", agg.Func)
	}
}
