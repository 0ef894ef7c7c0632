package relstore

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestValueLayout pins the boxed cell: 32 bytes, whatever it holds; a string
// or an array read back as built (a nil array nil, an empty one empty, the
// array's capacity its length, so an append copies); S and A of any other type
// empty; and %v printing the cell, not its pointer.
func TestValueLayout(t *testing.T) {
	if size := unsafe.Sizeof(Value{}); size != 32 {
		t.Errorf("a Value is %d bytes, want 32", size)
	}
	backing := []int64{1, 2, 3, 4}
	arr := IntArray(backing[:2])
	if a := arr.A(); len(a) != 2 || cap(a) != 2 || &a[0] != &backing[0] {
		t.Errorf("IntArray(backing[:2]).A() is %v (cap %d), want the backing's first two elements, cap 2", a, cap(a))
	}
	_ = append(arr.A(), 9)
	if backing[2] != 3 {
		t.Error("appending to A() wrote into the array's backing")
	}
	if IntArray(nil).A() != nil || IntArray([]int64{}).A() == nil || !IntArray(nil).Identical(IntArray([]int64{})) {
		t.Error("a nil array must read back nil, an empty one empty, and the two be identical")
	}
	if s := Str("héllo").S(); s != "héllo" {
		t.Errorf("Str round trip: %q", s)
	}
	if Int(5).S() != "" || Str("x").A() != nil || arr.S() != "" {
		t.Error("S and A of a cell of another type must be empty")
	}
	for v, want := range map[*Value]string{
		{}:                               "NULL",
		ptr(Int(-5)):                     "integer -5",
		ptr(Float(2.5)):                  "decimal 2.5",
		ptr(Str(`a"b`)):                  `string "a\"b"`,
		ptr(Bool(true)):                  "boolean true",
		ptr(IntArray([]int64{1, 2})):     "integer[] {1,2}",
		ptr(IntArray(nil)):               "integer[] {}",
		ptr(Float(math.Copysign(0, -1))): "decimal -0",
	} {
		if got := fmt.Sprint(*v); got != want {
			t.Errorf("%%v of a cell prints %s, want %s", got, want)
		}
	}
}

func ptr(v Value) *Value { return &v }

func TestValueConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		v       Value
		typ     ValueType
		asInt   int64
		asFloat float64
		asStr   string
		asBool  bool
	}{
		{Int(42), TypeInt, 42, 42, "42", true},
		{Float(2.5), TypeFloat, 2, 2.5, "2.5", true},
		{Str("hello"), TypeString, 0, 0, "hello", true},
		{Bool(true), TypeBool, 1, 1, "true", true},
		{Bool(false), TypeBool, 0, 0, "false", false},
		{Null(), TypeNull, 0, 0, "", false},
		{Str("17"), TypeString, 17, 17, "17", true},
	}
	for _, c := range cases {
		if c.v.Type != c.typ {
			t.Errorf("value %v: type = %v, want %v", c.v, c.v.Type, c.typ)
		}
		if got := c.v.AsInt(); got != c.asInt {
			t.Errorf("value %v: AsInt = %d, want %d", c.v, got, c.asInt)
		}
		if got := c.v.AsFloat(); got != c.asFloat {
			t.Errorf("value %v: AsFloat = %g, want %g", c.v, got, c.asFloat)
		}
		if got := c.v.AsString(); got != c.asStr {
			t.Errorf("value %v: AsString = %q, want %q", c.v, got, c.asStr)
		}
		if got := c.v.AsBool(); got != c.asBool {
			t.Errorf("value %v: AsBool = %v, want %v", c.v, got, c.asBool)
		}
	}
}

func TestIntArrayValue(t *testing.T) {
	v := IntArray([]int64{3, 1, 2})
	if v.Type != TypeIntArray {
		t.Fatalf("type = %v, want TypeIntArray", v.Type)
	}
	if got, want := v.AsString(), "{3,1,2}"; got != want {
		t.Errorf("AsString = %q, want %q", got, want)
	}
	if v.StorageBytes() != 3*8+8 {
		t.Errorf("StorageBytes = %d, want %d", v.StorageBytes(), 3*8+8)
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(1), Float(1.5), -1},
		{Float(1.0), Int(1), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), Null(), 0},
		{Str("abc"), Str("abd"), -1},
		{Str("b"), Str("a"), 1},
		{IntArray([]int64{1, 2}), IntArray([]int64{1, 2, 3}), -1},
		{IntArray([]int64{1, 3}), IntArray([]int64{1, 2, 3}), 1},
		{IntArray([]int64{1, 2}), IntArray([]int64{1, 2}), 0},
		// Integers compare exactly at any magnitude; against a float, as floats.
		{Int(1<<53 + 1), Int(1 << 53), 1},
		{Int(math.MinInt64), Int(math.MaxInt64), -1},
		{Int(math.MaxInt64 - 1), Int(math.MaxInt64), -1},
		{Bool(true), Int(1), 0},
		{Int(1<<53 + 1), Float(1 << 53), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueEqual(t *testing.T) {
	if !Int(5).Equal(Float(5)) {
		t.Error("Int(5) should equal Float(5) numerically")
	}
	if Str("5").Equal(Str("6")) {
		t.Error("different strings should not be equal")
	}
}

func TestParseType(t *testing.T) {
	cases := map[string]ValueType{
		"integer": TypeInt, "int": TypeInt, "bigint": TypeInt,
		"decimal": TypeFloat, "float": TypeFloat, "double": TypeFloat,
		"string": TypeString, "text": TypeString,
		"bool": TypeBool, "boolean": TypeBool,
		"integer[]": TypeIntArray, "int[]": TypeIntArray,
	}
	for s, want := range cases {
		got, err := ParseType(s)
		if err != nil {
			t.Errorf("ParseType(%q) error: %v", s, err)
			continue
		}
		if got != want {
			t.Errorf("ParseType(%q) = %v, want %v", s, got, want)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Error("ParseType(blob) should error")
	}
}

func TestTypeRoundTrip(t *testing.T) {
	for _, typ := range []ValueType{TypeInt, TypeFloat, TypeString, TypeBool, TypeIntArray} {
		parsed, err := ParseType(typ.String())
		if err != nil {
			t.Errorf("ParseType(%v.String()) error: %v", typ, err)
			continue
		}
		if parsed != typ {
			t.Errorf("round trip of %v gave %v", typ, parsed)
		}
	}
}

func TestArrayAppendKeepsSortedAndDedupes(t *testing.T) {
	arr := []int64{}
	for _, x := range []int64{5, 1, 3, 3, 2, 5} {
		arr = ArrayAppend(arr, x)
	}
	want := []int64{1, 2, 3, 5}
	if len(arr) != len(want) {
		t.Fatalf("ArrayAppend result %v, want %v", arr, want)
	}
	for i := range want {
		if arr[i] != want[i] {
			t.Fatalf("ArrayAppend result %v, want %v", arr, want)
		}
	}
	for _, x := range want {
		if !ArrayHas(arr, x) {
			t.Errorf("ArrayHas(%v, %d) = false, want true", arr, x)
		}
	}
	if ArrayHas(arr, 4) {
		t.Error("ArrayHas should not find 4")
	}
}

// Property: ArrayAppend always yields a sorted, duplicate-free slice and
// contains every appended element.
func TestArrayAppendProperty(t *testing.T) {
	f := func(xs []int64) bool {
		arr := []int64{}
		for _, x := range xs {
			arr = ArrayAppend(arr, x)
		}
		if !sort.SliceIsSorted(arr, func(i, j int) bool { return arr[i] < arr[j] }) {
			return false
		}
		for i := 1; i < len(arr); i++ {
			if arr[i] == arr[i-1] {
				return false
			}
		}
		for _, x := range xs {
			if !ArrayHas(arr, x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric and reflexive for integer values.
func TestCompareProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		if va.Compare(va) != 0 {
			return false
		}
		return va.Compare(vb) == -vb.Compare(va)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGeneralizeType(t *testing.T) {
	cases := []struct {
		a, b, want ValueType
	}{
		{TypeInt, TypeInt, TypeInt},
		{TypeInt, TypeFloat, TypeFloat},
		{TypeFloat, TypeInt, TypeFloat},
		{TypeInt, TypeString, TypeString},
		{TypeBool, TypeInt, TypeInt},
		{TypeNull, TypeInt, TypeInt},
		{TypeInt, TypeNull, TypeInt},
	}
	for _, c := range cases {
		if got := GeneralizeType(c.a, c.b); got != c.want {
			t.Errorf("GeneralizeType(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func BenchmarkArrayAppend(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		arr := make([]int64, 0, 64)
		for j := 0; j < 64; j++ {
			arr = ArrayAppend(arr, rng.Int63n(1000))
		}
	}
}
