package relstore

import (
	"fmt"
	"strings"
)

// Column describes a single attribute of a relation.
type Column struct {
	Name string
	Type ValueType
}

// Schema is an ordered list of columns, optionally with a (composite)
// primary key. The primary key applies within a single version of a CVD: two
// records in the same version may not share primary-key values, but records
// across versions may (Chapter 3.1).
type Schema struct {
	Columns    []Column
	PrimaryKey []string // column names forming the primary key, may be empty
}

// NewSchema builds a schema from columns and primary-key column names.
func NewSchema(cols []Column, pk ...string) (Schema, error) {
	s := Schema{Columns: cols, PrimaryKey: pk}
	seen := make(map[string]struct{}, len(cols))
	for _, c := range cols {
		if c.Name == "" {
			return Schema{}, fmt.Errorf("relstore: empty column name")
		}
		if _, dup := seen[c.Name]; dup {
			return Schema{}, fmt.Errorf("relstore: duplicate column %q", c.Name)
		}
		seen[c.Name] = struct{}{}
	}
	for _, k := range pk {
		if _, ok := seen[k]; !ok {
			return Schema{}, fmt.Errorf("relstore: primary key column %q not in schema", k)
		}
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for tests and
// statically known schemas.
func MustSchema(cols []Column, pk ...string) Schema {
	s, err := NewSchema(cols, pk...)
	if err != nil {
		panic(err)
	}
	return s
}

// ColumnIndex returns the position of the named column, or -1.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// HasColumn reports whether the schema contains the named column.
func (s Schema) HasColumn(name string) bool { return s.ColumnIndex(name) >= 0 }

// ColumnNames returns the ordered column names.
func (s Schema) ColumnNames() []string {
	names := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		names[i] = c.Name
	}
	return names
}

// PrimaryKeyIndexes returns the positions of the primary key columns.
func (s Schema) PrimaryKeyIndexes() []int {
	idx := make([]int, 0, len(s.PrimaryKey))
	for _, k := range s.PrimaryKey {
		if i := s.ColumnIndex(k); i >= 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

// Clone returns a deep copy of the schema.
func (s Schema) Clone() Schema {
	out := Schema{
		Columns:    make([]Column, len(s.Columns)),
		PrimaryKey: make([]string, len(s.PrimaryKey)),
	}
	copy(out.Columns, s.Columns)
	copy(out.PrimaryKey, s.PrimaryKey)
	return out
}

// WithColumn returns a copy of the schema with an extra column appended.
// Adding a column that already exists is an error (schema evolution in the
// CVD layer generates fresh attribute identities instead).
func (s Schema) WithColumn(c Column) (Schema, error) {
	if s.HasColumn(c.Name) {
		return Schema{}, fmt.Errorf("relstore: column %q already exists", c.Name)
	}
	out := s.Clone()
	out.Columns = append(out.Columns, c)
	return out, nil
}

// WithColumnType returns a copy of the schema with the named column's type
// changed. Used when the CVD layer generalizes a type (e.g. integer→decimal,
// Section 4.3).
func (s Schema) WithColumnType(name string, t ValueType) (Schema, error) {
	i := s.ColumnIndex(name)
	if i < 0 {
		return Schema{}, fmt.Errorf("relstore: column %q does not exist", name)
	}
	out := s.Clone()
	out.Columns[i].Type = t
	return out, nil
}

// Equal reports whether two schemas have the same columns, types and primary
// key, in the same order.
func (s Schema) Equal(o Schema) bool {
	if len(s.Columns) != len(o.Columns) || len(s.PrimaryKey) != len(o.PrimaryKey) {
		return false
	}
	for i := range s.Columns {
		if s.Columns[i] != o.Columns[i] {
			return false
		}
	}
	for i := range s.PrimaryKey {
		if s.PrimaryKey[i] != o.PrimaryKey[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "name type, ..., PRIMARY KEY(a,b)".
func (s Schema) String() string {
	var b strings.Builder
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
	}
	if len(s.PrimaryKey) > 0 {
		b.WriteString(", PRIMARY KEY(")
		b.WriteString(strings.Join(s.PrimaryKey, ","))
		b.WriteString(")")
	}
	return b.String()
}

// GeneralizeType returns the more general of two types following the single
// pool schema-evolution rule of Section 4.3 (e.g. integer + decimal →
// decimal, anything + string → string).
func GeneralizeType(a, b ValueType) ValueType {
	if a == b {
		return a
	}
	if a == TypeNull {
		return b
	}
	if b == TypeNull {
		return a
	}
	if a == TypeString || b == TypeString {
		return TypeString
	}
	if a == TypeIntArray || b == TypeIntArray {
		return TypeString
	}
	if (a == TypeFloat && (b == TypeInt || b == TypeBool)) ||
		(b == TypeFloat && (a == TypeInt || a == TypeBool)) {
		return TypeFloat
	}
	if (a == TypeInt && b == TypeBool) || (b == TypeInt && a == TypeBool) {
		return TypeInt
	}
	return TypeString
}

// Narrower reports whether a cell of type t is stored cast in a column of type
// col: it is not NULL, not col already, and GeneralizeType widens it to col
// (integer in a decimal column, anything in a string column). A cell that is
// not narrower than its column — a string in an integer column — is stored as
// it is. It is the cast GeneralizeColumn applies to a stored cell.
func Narrower(t, col ValueType) bool {
	return t != col && t != TypeNull && GeneralizeType(t, col) == col
}
