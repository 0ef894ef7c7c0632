package relstore

import "fmt"

// This file exposes the physical columnar layout of a Table for the durable
// snapshot writer (package durable): the typed payload lanes and the per-cell
// type/null tag vector of each column can be read out verbatim and a table
// can be rebuilt from lanes without going through per-row Value boxing. The
// binary format itself lives in package durable; relstore only owns the
// lane-level access so column internals stay private to this package.

// ColumnLanes is one column's physical storage: the tag vector plus whichever
// typed payload lanes the column has materialized (nil lanes were never
// needed by any cell). The slices alias the table's backing vectors — callers
// must treat them as read-only and must not retain them across mutations of
// the source table. A view column's (see Table.GatherInto) are its cells
// gathered into fresh vectors, which leaves the view as it is.
type ColumnLanes struct {
	Tags   []uint8   // per-cell ValueType; doubles as the null bitmap
	Ints   []int64   // TypeInt cells, TypeBool cells as 0/1
	Floats []float64 // TypeFloat cells
	Strs   []string  // TypeString cells
	Arrs   [][]int64 // TypeIntArray overflow cells
}

// ColumnLanes returns the physical lanes of column i (0-based, schema order).
func (t *Table) ColumnLanes(i int) ColumnLanes {
	c := t.cols[i]
	if c.at != nil {
		c = c.copyOwned()
	}
	return ColumnLanes{Tags: c.tags, Ints: c.ints, Floats: c.floats, Strs: c.strs, Arrs: c.arrs}
}

// Value boxes cell pos of the lanes, as Table.At boxes a cell of a column.
func (l *ColumnLanes) Value(pos int) (v Value) {
	c := column{tags: l.Tags, ints: l.Ints, floats: l.Floats, strs: l.Strs, arrs: l.Arrs}
	c.box(&v, pos)
	return v
}

// NewTableFromLanes rebuilds a table from per-column physical lanes, the
// inverse of reading every column with ColumnLanes. Every column's tag vector
// must have exactly nrows entries, and each present payload lane must match
// that length; the lane slices are adopted (not copied). indexCols, when
// non-empty, names the columns to build the unique index on (the index itself
// is rebuilt, never serialized). A schema primary key is indexed implicitly
// when indexCols is empty, matching NewTable.
func NewTableFromLanes(name string, schema Schema, cluster ClusterMode, nrows int, lanes []ColumnLanes, indexCols []string) (*Table, error) {
	if len(lanes) != len(schema.Columns) {
		return nil, fmt.Errorf("relstore: table %s: %d lane sets for %d schema columns", name, len(lanes), len(schema.Columns))
	}
	t := NewTable(name, schema)
	t.Cluster = cluster
	t.nrows = nrows
	for i, l := range lanes {
		if len(l.Tags) != nrows {
			return nil, fmt.Errorf("relstore: table %s: column %d has %d tags, want %d", name, i, len(l.Tags), nrows)
		}
		if (l.Ints != nil && len(l.Ints) != nrows) ||
			(l.Floats != nil && len(l.Floats) != nrows) ||
			(l.Strs != nil && len(l.Strs) != nrows) ||
			(l.Arrs != nil && len(l.Arrs) != nrows) {
			return nil, fmt.Errorf("relstore: table %s: column %d payload lane length mismatch", name, i)
		}
		for pos, tag := range l.Tags {
			switch ValueType(tag) {
			case TypeNull:
			case TypeInt, TypeBool:
				if l.Ints == nil {
					return nil, fmt.Errorf("relstore: table %s: column %d row %d needs the integer lane", name, i, pos)
				}
			case TypeFloat:
				if l.Floats == nil {
					return nil, fmt.Errorf("relstore: table %s: column %d row %d needs the float lane", name, i, pos)
				}
			case TypeString:
				if l.Strs == nil {
					return nil, fmt.Errorf("relstore: table %s: column %d row %d needs the string lane", name, i, pos)
				}
			case TypeIntArray:
				if l.Arrs == nil {
					return nil, fmt.Errorf("relstore: table %s: column %d row %d needs the overflow lane", name, i, pos)
				}
			default:
				return nil, fmt.Errorf("relstore: table %s: column %d row %d has unknown type tag %d", name, i, pos, tag)
			}
		}
		t.cols[i] = &column{tags: l.Tags, ints: l.Ints, floats: l.Floats, strs: l.Strs, arrs: l.Arrs}
		t.cols[i].learn()
	}
	if len(indexCols) > 0 {
		if err := t.BuildIndexOn(indexCols...); err != nil {
			return nil, err
		}
	} else if pk := schema.PrimaryKeyIndexes(); len(pk) > 0 {
		if err := t.BuildIndexOn(schema.PrimaryKey...); err != nil {
			return nil, err
		}
	}
	return t, nil
}
