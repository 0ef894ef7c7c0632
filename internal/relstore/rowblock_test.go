package relstore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// BenchmarkRowBlock boxes 1 000 rows spread over a 32 K-row table of 20
// integer columns (every 32nd row), the shape of a read.inproc select's
// answer: "uniform" as the table stores them, each column knowing its one tag,
// and "mixed" with one NULL in each column, so that every cell's tag is read.
// It reports the time per row boxed and the bytes per select.
func BenchmarkRowBlock(b *testing.B) {
	const width, n, stride = 20, 32 << 10, 32
	cols := make([]Column, width)
	for j := range cols {
		cols[j] = Column{Name: fmt.Sprintf("c%02d", j), Type: TypeInt}
	}
	rng := rand.New(rand.NewSource(1))
	tbl := NewTable("t", MustSchema(cols))
	for i := 0; i < n; i++ {
		row := make(Row, width)
		for j := range row {
			row[j] = Int(rng.Int63n(1_000_000))
		}
		tbl.AppendRow(row)
	}
	sel := make(Selection, 0, n/stride)
	for i := 0; i < n; i += stride {
		sel = append(sel, int32(i))
	}
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if block, w := tbl.RowBlock(sel, 1); len(block) != len(sel)*w {
				b.Fatal(len(block))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sel)), "ns/row")
	}
	b.Run("uniform", run)
	for j := range cols {
		tbl.Set(n-1, j, Null())
	}
	b.Run("mixed", run)
}

// laneValue boxes cell pos of lanes by its tag, the reference FuzzRowBlock
// holds the box kernel to: it reads every cell's tag and shares no code with
// column.box.
func laneValue(l ColumnLanes, pos int) Value {
	switch ValueType(l.Tags[pos]) {
	case TypeInt:
		return Int(l.Ints[pos])
	case TypeFloat:
		return Float(l.Floats[pos])
	case TypeString:
		return Str(l.Strs[pos])
	case TypeBool:
		return Bool(l.Ints[pos] != 0)
	case TypeIntArray:
		return IntArray(l.Arrs[pos])
	}
	return Null()
}

// FuzzRowBlock: on random tables — each column uniform (every cell its
// declared type) or mixed (strays and NULLs) — and after random edits (Set of
// a stray type or NULL, an appended row, AlterColumnType, Shrink, DeleteWhere,
// SortBy, a view and a view of a view), every column's uniform-tag fact holds
// of each of its cells, and RowBlock, At, FilterVec and FilterVecAll agree
// with the tag-reading reference laneValue.
func FuzzRowBlock(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(2), []byte{7, 7, 2, 0, 6, 3})
	f.Add(int64(3), []byte{3, 3, 4, 8, 1, 2})
	f.Add(int64(4), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		rng := rand.New(rand.NewSource(seed))
		tbl := randomSchemaTable(rng)
		pure := func(typ ValueType) Value {
			for {
				if v := randomValue(rng, typ); v.Type == typ {
					return v
				}
			}
		}
		if seed%2 == 0 { // uniform columns: rebuild every cell in its declared type
			uniform := NewTable("uniform", tbl.Schema)
			for i := 0; i < tbl.Len(); i++ {
				r := make(Row, len(tbl.Schema.Columns))
				for j, c := range tbl.Schema.Columns {
					r[j] = pure(c.Type)
				}
				uniform.AppendRow(r)
			}
			tbl = uniform
		}
		check := func(what string) {
			t.Helper()
			n, w := tbl.Len(), len(tbl.cols)
			lanes := make([]ColumnLanes, w)
			for j, c := range tbl.cols {
				lanes[j] = tbl.ColumnLanes(j)
				if typ, ok := c.uniform(); ok {
					for i := 0; i < n; i++ {
						if got := ValueType(lanes[j].Tags[i]); got != typ {
							t.Fatalf("%s: column %d claims every cell is %v, cell %d is %v", what, j, typ, i, got)
						}
					}
				}
			}
			var sel Selection
			for i := 0; i < n; i++ {
				if rng.Intn(3) != 0 {
					sel = append(sel, int32(i))
				}
			}
			from := rng.Intn(w + 1)
			block, width := tbl.RowBlock(sel, from)
			if width != w-from || len(block) != len(sel)*width {
				t.Fatalf("%s: RowBlock from %d of %d columns is %d cells of width %d", what, from, w, len(block), width)
			}
			for k, i := range sel {
				for j := from; j < w; j++ {
					want := laneValue(lanes[j], int(i))
					if got := block[k*width+j-from]; !got.Identical(want) {
						t.Fatalf("%s: RowBlock cell (%d,%d) is %v, want %v", what, i, j, got, want)
					}
					if got := tbl.At(int(i), j); !got.Identical(want) {
						t.Fatalf("%s: At(%d,%d) is %v, want %v", what, i, j, got, want)
					}
				}
			}
			preds := make([]ColPred, 1+rng.Intn(2))
			for k := range preds {
				preds[k] = ColPred{Col: tbl.Schema.Columns[rng.Intn(w)].Name, Op: propOps[rng.Intn(len(propOps))], Value: randomValue(rng, anyType)}
			}
			var want Selection
			for i := 0; i < n; i++ {
				keep := true
				for _, p := range preds {
					keep = keep && p.Op.Eval(laneValue(lanes[tbl.Schema.ColumnIndex(p.Col)], i).Compare(p.Value))
				}
				if keep {
					want = append(want, int32(i))
				}
			}
			if got, err := tbl.FilterVecAll(preds); err != nil || !slices.Equal(got, want) {
				t.Fatalf("%s: FilterVecAll(%v) is %v (%v), want %v", what, preds, got, err, want)
			}
			if len(preds) == 1 {
				if got, err := tbl.FilterVec(preds[0].Col, preds[0].Op, preds[0].Value); err != nil || !slices.Equal(got, want) {
					t.Fatalf("%s: FilterVec(%v) is %v (%v), want %v", what, preds[0], got, err, want)
				}
			}
		}
		check("as built")
		for step, op := range ops {
			n, w := tbl.Len(), len(tbl.cols)
			j := rng.Intn(w)
			var what string
			switch op % 9 {
			case 0:
				if n > 0 {
					what = "Set of a stray type"
					tbl.Set(rng.Intn(n), j, randomValue(rng, anyType))
				}
			case 1:
				if n > 0 {
					what = "Set of NULL"
					tbl.Set(rng.Intn(n), j, Null())
				}
			case 2:
				what = "an appended row"
				r := make(Row, w)
				for c := range r {
					r[c] = pure(tbl.Schema.Columns[c].Type)
				}
				tbl.AppendRow(r)
			case 3:
				what = "AlterColumnType"
				if err := tbl.AlterColumnType(tbl.Schema.Columns[j].Name, ValueType(rng.Intn(5)+1)); err != nil {
					t.Fatal(err)
				}
			case 4:
				what = "Shrink"
				tbl.Shrink(rng.Intn(n + 1))
			case 5:
				what = "DeleteWhere"
				tbl.DeleteWhere(func(Row) bool { return rng.Intn(3) == 0 })
			case 6:
				what = "SortBy"
				if err := tbl.SortBy(ClusterNone, tbl.Schema.Columns[j].Name); err != nil {
					t.Fatal(err)
				}
			case 7, 8:
				what = "a view"
				var sel Selection
				for i := 0; i < n; i++ {
					if rng.Intn(4) != 0 {
						sel = append(sel, int32(i))
					}
				}
				tbl = tbl.GatherInto("view", sel)
			}
			if what != "" {
				check(fmt.Sprintf("step %d, %s", step, what))
			}
		}
	})
}
