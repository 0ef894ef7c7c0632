package relstore

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/recset"
)

// JoinMethod selects the join strategy used to combine a data table with the
// rid list of a version during checkout (Section 5.5.5 compares all three).
type JoinMethod int

const (
	// HashJoin builds a hash table on the rid list and probes it while
	// sequentially scanning the data table. This is the default strategy
	// because its cost is linear in the partition size regardless of the
	// physical layout.
	HashJoin JoinMethod = iota
	// MergeJoin sorts the rid list and merges it against a scan of the data
	// table in rid order (an index scan when the table is clustered on rid).
	MergeJoin
	// IndexNestedLoopJoin performs one index lookup in the data table per rid
	// in the list (random access per rid).
	IndexNestedLoopJoin
)

// String names the join method.
func (m JoinMethod) String() string {
	switch m {
	case HashJoin:
		return "hash-join"
	case MergeJoin:
		return "merge-join"
	case IndexNestedLoopJoin:
		return "index-nested-loop-join"
	default:
		return fmt.Sprintf("join(%d)", int(m))
	}
}

// JoinOnRIDs returns the rows of the data table whose value in ridColumn is
// contained in rids, using the requested join method. All three strategies
// probe the rid column vector directly and materialize only the matching
// rows.
//
// This is the core of the checkout SQL translation for split-by-vlist and
// split-by-rlist (Table 4.1): the rid list is obtained from the versioning
// table and then joined with the data table.
func JoinOnRIDs(data *Table, ridColumn string, rids []int64, method JoinMethod) ([]Row, error) {
	sel, err := joinSelection(data, ridColumn, ridProbe{rids: rids}, method)
	if err != nil {
		return nil, err
	}
	return data.GatherRows(sel), nil
}

// JoinTableOnRIDs performs the hash join of a version's record set with the
// data table and returns the matching rows as a new table named tableName,
// indexed on ridColumn, that copies no cell: its columns view the data table's
// lanes through the selection the join built, which it owns (see
// Table.GatherInto). When the data table's rid column knows that it holds rid r
// at row r-1 for every rid of the set (its run, see column.go) — a record
// catalog's does — the selection is the set decoded and the index the one
// BuildIndexOn builds over ascending keys, and neither reads a rid. Otherwise
// the join scans the rid column, and the answer's index refuses a rid the data
// table holds twice. It accounts the cost model's hash join over scanned rows:
// data.Len() for a join with data itself, or the size of the partition a
// partitioning places the version in, which the cost model scans instead.
func JoinTableOnRIDs(data *Table, ridColumn string, set *recset.Set, scanned int, tableName string) (*Table, error) {
	ci := data.Schema.ColumnIndex(ridColumn)
	if ci < 0 {
		return nil, fmt.Errorf("relstore: table %s has no column %q", data.Name, ridColumn)
	}
	col := data.cols[ci]
	out := data.GatherInto(tableName, hashSelection(data, col, ridProbe{set: set}))
	data.stats.AddSeqReads(int64(scanned))
	data.stats.AddHashProbes(int64(scanned))
	if col.holdsRIDs(set) && data.Schema.Columns[ci].Type == TypeInt {
		out.indexAscending(ci)
		return out, nil
	}
	if err := out.BuildIndexOn(ridColumn); err != nil {
		return nil, err
	}
	return out, nil
}

// SelectRIDSet returns the positions of the rows whose ridColumn value is in
// set: the set decoded when the column's rid run covers it, a sequential scan
// probing the compressed set per row otherwise. Either is accounted as the
// scan.
func (t *Table) SelectRIDSet(ridColumn string, set *recset.Set) (Selection, error) {
	return joinSelection(t, ridColumn, ridProbe{set: set}, HashJoin)
}

// ridProbe is the probe side of a rid join: either a compressed set or a
// plain rid slice.
type ridProbe struct {
	set  *recset.Set
	rids []int64
}

func (p ridProbe) len() int {
	if p.set != nil {
		return int(p.set.Len())
	}
	return len(p.rids)
}

// sorted returns the probe rids in ascending order.
func (p ridProbe) sorted() []int64 {
	if p.set != nil {
		return p.set.Slice() // recsets iterate ascending by construction
	}
	out := make([]int64, len(p.rids))
	copy(out, p.rids)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// contains builds the membership predicate once (a map for plain slices, the
// compressed set itself otherwise).
func (p ridProbe) contains() func(int64) bool {
	if p.set != nil {
		return p.set.Contains
	}
	m := make(map[int64]struct{}, len(p.rids))
	for _, r := range p.rids {
		m[r] = struct{}{}
	}
	return func(x int64) bool {
		_, ok := m[x]
		return ok
	}
}

// joinSelection evaluates a rid join down to a selection vector over the
// data table, preserving the cost-model accounting of the row-backed
// implementation: the hash join charges a full sequential scan plus one hash
// probe per row, the merge join a scan (doubled when the data side must be
// sorted first), and the index-nested-loop one random read per probe rid.
func joinSelection(data *Table, ridColumn string, probe ridProbe, method JoinMethod) (Selection, error) {
	ci := data.Schema.ColumnIndex(ridColumn)
	if ci < 0 {
		return nil, fmt.Errorf("relstore: table %s has no column %q", data.Name, ridColumn)
	}
	col := data.cols[ci]
	switch method {
	case HashJoin:
		sel := hashSelection(data, col, probe)
		data.stats.AddSeqReads(int64(data.nrows))
		data.stats.AddHashProbes(int64(data.nrows))
		return sel, nil
	case MergeJoin:
		return mergeJoinSelection(data, ci, probe.sorted()), nil
	case IndexNestedLoopJoin:
		cols := data.IndexColumns()
		if len(cols) != 1 || data.Schema.ColumnIndex(cols[0]) != ci {
			return nil, fmt.Errorf("relstore: index-nested-loop join requires a unique index on %q of table %s", data.Schema.Columns[ci].Name, data.Name)
		}
		if data.intIndex == nil {
			return nil, fmt.Errorf("relstore: index-nested-loop join requires an integer index on %q of table %s", data.Schema.Columns[ci].Name, data.Name)
		}
		var sel Selection
		if probe.set != nil {
			sel = make(Selection, 0, probe.len())
			probe.set.ForEach(func(rid int64) bool {
				if pos, ok := data.intPos(rid); ok {
					data.stats.AddRandomReads(1)
					sel = append(sel, int32(pos))
				}
				return true
			})
		} else {
			sel = make(Selection, 0, len(probe.rids))
			for _, rid := range probe.rids {
				if pos, ok := data.intPos(rid); ok {
					data.stats.AddRandomReads(1)
					sel = append(sel, int32(pos))
				}
			}
		}
		return sel, nil
	default:
		return nil, fmt.Errorf("relstore: unknown join method %d", int(method))
	}
}

// hashSelection selects the rows of data whose rid, in col, probe holds: the
// set decoded when col's run covers it, by a membership test of every row
// otherwise. It accounts nothing: the caller charges the hash join the cost
// model prices.
func hashSelection(data *Table, col *column, probe ridProbe) Selection {
	if probe.set != nil && col.holdsRIDs(probe.set) {
		return setPositions(probe.set)
	}
	sel := make(Selection, 0, probe.len())
	contains := probe.contains()
	for i := 0; i < data.nrows; i++ {
		if contains(col.asInt(i)) {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// holdsRIDs reports whether the column's run covers set: every rid r of it is
// at cell r-1. It reads no cell.
func (c *column) holdsRIDs(set *recset.Set) bool {
	high, ok := set.Max()
	if !ok {
		return true
	}
	low, _ := set.Min()
	return low >= 1 && high <= int64(c.run)
}

// setPositions decodes a set of rids 1.. into the positions rid-1, ascending,
// walking its containers in place.
func setPositions(set *recset.Set) Selection {
	sel := make(Selection, set.Len())
	n := 0
	set.Containers(func(base int64, lows []uint16, bitmap []uint64) bool {
		first := int32(base - 1)
		out := sel[n:]
		k := 0
		for _, lo := range lows {
			out[k] = first + int32(lo)
			k++
		}
		for w, word := range bitmap {
			for ; word != 0; word &= word - 1 {
				out[k] = first + int32(w<<6|bits.TrailingZeros64(word))
				k++
			}
		}
		n += k
		return true
	})
	return sel[:n]
}

// mergeJoinSelection merges an already-sorted rid list against the data
// table's rid column. When the table is clustered on rid this is a single
// sequential pass; otherwise the data side must be sorted first (modelled as
// a full scan plus the sort's sequential reads).
func mergeJoinSelection(data *Table, ridCol int, sorted []int64) Selection {
	col := data.cols[ridCol]
	type ridPos struct {
		rid int64
		pos int32
	}
	pairs := make([]ridPos, data.nrows)
	for i := 0; i < data.nrows; i++ {
		pairs[i] = ridPos{rid: col.asInt(i), pos: int32(i)}
	}
	data.stats.AddSeqReads(int64(data.nrows))
	if data.Cluster != ClusterOnRID {
		// Sorting the data side costs another pass in the cost model.
		data.stats.AddSeqReads(int64(len(pairs)))
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].rid < pairs[j].rid })
	}
	sel := make(Selection, 0, len(sorted))
	i, j := 0, 0
	for i < len(pairs) && j < len(sorted) {
		switch {
		case pairs[i].rid < sorted[j]:
			i++
		case pairs[i].rid > sorted[j]:
			j++
		default:
			sel = append(sel, pairs[i].pos)
			i++
			j++
		}
	}
	return sel
}
