// Package relstore implements a small embedded relational storage engine.
//
// It is the substrate that the versioning layers (package cvd, partition) are
// built on, playing the role PostgreSQL plays in the OrpheusDB paper: typed
// tables, integer-array columns (the vlist attribute of split-by-vlist and
// combined-table), primary-key hash indexes, and three join strategies (hash
// join, merge join, and index nested-loop join) whose relative costs drive the
// checkout cost model of Chapter 5. Split-by-rlist keeps its rlists as
// compressed record sets (package recset) outside any table; the join of a
// checkout (JoinTableOnRIDs) probes with the set, and the Database accounts for
// the versioning table they stand for as a Relation.
//
// Concurrency: a Database's table registry is guarded by its own mutex, and
// the CostStats I/O counters are updated atomically, so any number of
// goroutines may read (scan, join, look up) the same tables concurrently.
// Table mutation (inserts, schema changes, sorts) is not internally
// synchronized — the versioning layer above serializes writers per CVD.
package relstore

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unsafe"
)

// ValueType enumerates the column types supported by the engine.
type ValueType uint8

// Supported column types.
const (
	TypeNull ValueType = iota
	TypeInt
	TypeFloat
	TypeString
	TypeBool
	TypeIntArray
)

// String returns the SQL-ish name of the type.
func (t ValueType) String() string {
	switch t {
	case TypeNull:
		return "null"
	case TypeInt:
		return "integer"
	case TypeFloat:
		return "decimal"
	case TypeString:
		return "string"
	case TypeBool:
		return "boolean"
	case TypeIntArray:
		return "integer[]"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// ParseType parses a type name as used in schema files and the attribute
// table of a CVD. It accepts the names produced by ValueType.String plus a
// few common aliases.
func ParseType(s string) (ValueType, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "int", "integer", "int64", "bigint":
		return TypeInt, nil
	case "float", "double", "decimal", "real", "float64":
		return TypeFloat, nil
	case "string", "text", "varchar":
		return TypeString, nil
	case "bool", "boolean":
		return TypeBool, nil
	case "integer[]", "int[]", "intarray":
		return TypeIntArray, nil
	case "null":
		return TypeNull, nil
	default:
		return TypeNull, fmt.Errorf("relstore: unknown type %q", s)
	}
}

// Value is a dynamically typed cell value. The zero value is SQL NULL.
//
// Layout. A Value is 32 bytes on a 64-bit platform: the type tag and a bool
// payload in the first word beside the length of a string or integer-array
// payload (n), then the integer payload (I), the float payload (F), and one
// pointer (p) to a string's bytes or an array's first element. Only a string
// or an array cell stores a pointer, so a block of scalar cells is written
// without a GC write barrier (Table.RowBlock fills each cell field by field
// into freshly zeroed memory), and a boxed row costs 32 bytes a cell.
//
// The unsafe code that turns a string or a slice into (p, n) and back is
// confined to this file: Str and IntArray build such a cell, as the box kernel
// (column.box) does from a column's lanes through setStr and setArr, and S and
// A read it back. Every other reader goes through S and A, so a pointer is only
// ever stored with the length it was taken with, and the race detector's
// checkptr instrumentation sees every conversion. A string payload is at most
// 4 GiB (n is 32 bits); Str panics past it.
//
// The blank func field makes Values incomparable with ==, which would compare
// the pointer rather than the payload: compare cells with Identical (exact)
// or Compare/Equal (ordering semantics).
type Value struct {
	_    [0]func()
	Type ValueType
	B    bool   // TypeBool payload
	n    uint32 // TypeString / TypeIntArray payload length
	I    int64  // TypeInt payload
	F    float64
	p    unsafe.Pointer // TypeString bytes / TypeIntArray elements
}

// Null returns the NULL value.
func Null() Value { return Value{Type: TypeNull} }

// Int returns an integer value.
func Int(v int64) Value { return Value{Type: TypeInt, I: v} }

// Float returns a floating point value.
func Float(v float64) Value { return Value{Type: TypeFloat, F: v} }

// Str returns a string value.
func Str(v string) Value {
	var out Value
	out.setStr(v)
	return out
}

// Bool returns a boolean value.
func Bool(v bool) Value { return Value{Type: TypeBool, B: v} }

// IntArray returns an integer-array value. The slice is used as-is (not
// copied); callers that keep mutating the slice should copy it first. A nil
// slice reads back nil and an empty one empty (A); both are the same cell to
// Identical and Compare.
func IntArray(v []int64) Value {
	var out Value
	out.setArr(v)
	return out
}

// setStr makes v the string s, writing only the fields a string cell uses.
func (v *Value) setStr(s string) {
	if uint64(len(s)) > math.MaxUint32 {
		panic("relstore: a string cell holds at most 4 GiB")
	}
	v.Type, v.n, v.p = TypeString, uint32(len(s)), unsafe.Pointer(unsafe.StringData(s))
}

// setArr makes v the integer array a, writing only the fields an array cell
// uses; A will read back a with its capacity cut to its length.
func (v *Value) setArr(a []int64) {
	if uint64(len(a)) > math.MaxUint32 {
		panic("relstore: an integer-array cell holds at most 2^32-1 elements")
	}
	v.Type, v.n, v.p = TypeIntArray, uint32(len(a)), unsafe.Pointer(unsafe.SliceData(a))
}

// S returns a string cell's payload, and "" for any other type.
func (v Value) S() string {
	if v.Type != TypeString {
		return ""
	}
	return unsafe.String((*byte)(v.p), v.n)
}

// A returns an integer-array cell's elements, and nil for any other type. The
// slice shares the cell's storage and its capacity is its length, so
// appending to it copies; never write through it.
func (v Value) A() []int64 {
	if v.Type != TypeIntArray {
		return nil
	}
	return unsafe.Slice((*int64)(v.p), v.n)
}

// String renders the cell with its type for %v and error messages: NULL,
// "integer 5", "decimal 2.5", "string \"s\"", "boolean true",
// "integer[] {1,2}".
func (v Value) String() string {
	switch v.Type {
	case TypeNull:
		return "NULL"
	case TypeString:
		return v.Type.String() + " " + strconv.Quote(v.S())
	default:
		return v.Type.String() + " " + v.AsString()
	}
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Type == TypeNull }

// AsInt returns the value as an int64, converting floats and bools.
func (v Value) AsInt() int64 {
	switch v.Type {
	case TypeInt:
		return v.I
	case TypeFloat:
		return int64(v.F)
	case TypeBool:
		if v.B {
			return 1
		}
		return 0
	case TypeString:
		n, _ := strconv.ParseInt(v.S(), 10, 64)
		return n
	default:
		return 0
	}
}

// AsFloat returns the value as a float64.
func (v Value) AsFloat() float64 {
	switch v.Type {
	case TypeInt:
		return float64(v.I)
	case TypeFloat:
		return v.F
	case TypeBool:
		if v.B {
			return 1
		}
		return 0
	case TypeString:
		f, _ := strconv.ParseFloat(v.S(), 64)
		return f
	default:
		return 0
	}
}

// AsString renders the value as a string, mirroring a text cast.
func (v Value) AsString() string {
	switch v.Type {
	case TypeNull:
		return ""
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeString:
		return v.S()
	case TypeBool:
		return strconv.FormatBool(v.B)
	case TypeIntArray:
		parts := make([]string, v.n)
		for i, x := range v.A() {
			parts[i] = strconv.FormatInt(x, 10)
		}
		return "{" + strings.Join(parts, ",") + "}"
	default:
		return ""
	}
}

// AsBool returns the value as a boolean.
func (v Value) AsBool() bool {
	switch v.Type {
	case TypeBool:
		return v.B
	case TypeInt:
		return v.I != 0
	case TypeFloat:
		return v.F != 0
	case TypeString:
		return v.n != 0
	default:
		return false
	}
}

// StorageBytes returns the number of bytes the value occupies in the storage
// accounting model (used for Figure 4.1(a) and the Chapter 7 storage costs).
func (v Value) StorageBytes() int64 { return CellBytes(v.Type, int(v.n)) }

// CellBytes returns what the storage accounting model charges a cell of type
// t: n is a string's length in bytes or an array's in elements, and is ignored
// for the other types. A relation charged as the table it stands for counts
// its cells with it.
func CellBytes(t ValueType, n int) int64 {
	switch t {
	case TypeNull:
		return 1
	case TypeInt:
		return 8
	case TypeFloat:
		return 8
	case TypeBool:
		return 1
	case TypeString:
		return int64(n) + 4
	case TypeIntArray:
		return int64(n)*8 + 8
	default:
		return 0
	}
}

// Compare orders two values. NULL sorts before everything. Integers and
// booleans (as 0 and 1) compare exactly as int64, at any magnitude; an integer
// against a float compares as float64, so integers above 2^53 that round to the
// same float equal it. Integer arrays compare element-wise; otherwise
// comparison is on the string rendering. The result is -1, 0 or 1.
func (v Value) Compare(o Value) int {
	if v.Type == TypeNull || o.Type == TypeNull {
		switch {
		case v.Type == TypeNull && o.Type == TypeNull:
			return 0
		case v.Type == TypeNull:
			return -1
		default:
			return 1
		}
	}
	if isNumeric(v.Type) && isNumeric(o.Type) {
		if v.Type != TypeFloat && o.Type != TypeFloat {
			return cmp.Compare(v.AsInt(), o.AsInt())
		}
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.Type == TypeIntArray && o.Type == TypeIntArray {
		return compareIntSlices(v.A(), o.A())
	}
	return strings.Compare(v.AsString(), o.AsString())
}

// Equal reports whether two values compare equal.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Identical reports exact equality — same type tag and same payload — unlike
// Equal, which compares by ordering semantics (Int(1) equals Float(1)).
// Floats compare by their bits, so a NaN is identical to itself and 0 is not
// identical to -0. It is how an update detects cells it did not change and how
// a commit decides that a staged row is a record it already stores.
func (v Value) Identical(o Value) bool {
	if v.Type != o.Type {
		return false
	}
	switch v.Type {
	case TypeInt:
		return v.I == o.I
	case TypeFloat:
		return math.Float64bits(v.F) == math.Float64bits(o.F)
	case TypeString:
		return v.S() == o.S()
	case TypeBool:
		return v.B == o.B
	case TypeIntArray:
		return slices.Equal(v.A(), o.A())
	default:
		return true
	}
}

// Cast converts the value to a column type the way ALTER COLUMN TYPE rewrites
// a stored cell (integer→decimal, anything→string, ...). NULL stays NULL; ok
// is false for a type that has no cast (integer arrays, null), in which case
// the value is returned unchanged.
func (v Value) Cast(typ ValueType) (cast Value, ok bool) {
	if v.IsNull() {
		return v, true
	}
	switch typ {
	case TypeFloat:
		return Float(v.AsFloat()), true
	case TypeInt:
		return Int(v.AsInt()), true
	case TypeString:
		return Str(v.AsString()), true
	case TypeBool:
		return Bool(v.AsBool()), true
	default:
		return v, false
	}
}

func isNumeric(t ValueType) bool {
	return t == TypeInt || t == TypeFloat || t == TypeBool
}

func compareIntSlices(a, b []int64) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// ArrayAppend appends x to arr if not already present, keeping the array
// sorted. It mirrors the `vlist = vlist + vj` commit translation.
func ArrayAppend(arr []int64, x int64) []int64 {
	i := sort.Search(len(arr), func(i int) bool { return arr[i] >= x })
	if i < len(arr) && arr[i] == x {
		return arr
	}
	arr = append(arr, 0)
	copy(arr[i+1:], arr[i:])
	arr[i] = x
	return arr
}

// ArrayHas reports whether x is present in the sorted array arr.
func ArrayHas(arr []int64, x int64) bool {
	i := sort.Search(len(arr), func(i int) bool { return arr[i] >= x })
	return i < len(arr) && arr[i] == x
}
