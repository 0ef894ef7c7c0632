package relstore

import (
	"fmt"
	"sync"
	"testing"
)

func viewSource(n int) *Table {
	src := NewTable("src", MustSchema([]Column{
		{Name: "rid", Type: TypeInt},
		{Name: "name", Type: TypeString},
		{Name: "score", Type: TypeInt},
	}, "rid"))
	for i := 0; i < n; i++ {
		src.MustInsert(Row{Int(int64(i + 1)), Str(fmt.Sprintf("g%03d", i)), Int(int64(i * 7))})
	}
	return src
}

func sameRows(t *testing.T, what string, got *Table, want []Row) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, got.Len(), len(want))
	}
	for i, w := range want {
		for j := range w {
			if g := got.At(i, j); !g.Identical(w[j]) {
				t.Fatalf("%s: row %d column %d is %v, want %v", what, i, j, g, w[j])
			}
		}
	}
}

// TestViewKeepsItsRows: a view stays what the table was when it was taken,
// whatever the table does next; appends to the table copy nothing, every other
// write copies the column it touches.
func TestViewKeepsItsRows(t *testing.T) {
	const n = 100
	src := viewSource(n)
	want := src.Rows()
	view := src.View()
	if got := src.SharedColumns(); got != 0 {
		t.Fatalf("a view left %d columns of its source shared, want 0", got)
	}
	viewed := func() (k int) {
		for _, c := range src.cols {
			if c.shared == colViewed {
				k++
			}
		}
		return k
	}

	for i := n; i < 3*n; i++ { // far enough to outgrow the backing more than once
		src.MustInsert(Row{Int(int64(i + 1)), Str("new"), Int(0)})
	}
	extra := NewTable("extra", src.Schema.Clone())
	extra.MustInsert(Row{Int(5000), Str("from"), Int(1)})
	if err := src.AppendFrom(extra, Selection{0}); err != nil {
		t.Fatal(err)
	}
	if got := viewed(); got != 3 {
		t.Fatalf("appending copied %d of 3 viewed columns", 3-got)
	}
	sameRows(t, "view after appends", view, want)

	src.Set(5, 2, Int(-1))
	if got := viewed(); got != 2 {
		t.Fatalf("a Set left %d columns viewed, want 2: it copies the one it writes", got)
	}
	src.Shrink(n / 2)
	src.MustInsert(Row{Int(1000), Str("over"), Int(1)})
	if got := viewed(); got != 0 {
		t.Fatalf("a Shrink left %d columns viewed, want 0", got)
	}
	if err := src.AlterColumnType("score", TypeFloat); err != nil {
		t.Fatal(err)
	}
	sameRows(t, "view after Set, Shrink and AlterColumnType", view, want)
	if view.Schema.Columns[2].Type != TypeInt {
		t.Fatal("altering the source altered the view's schema")
	}

	// What is gathered out of a view copies before it writes.
	full := make(Selection, n)
	for i := range full {
		full[i] = int32(i)
	}
	stage := view.GatherInto("stage", full)
	if got := stage.SharedColumns(); got != 3 {
		t.Fatalf("a full gather out of a view shares %d columns, want 3", got)
	}
	stage.Set(0, 1, Str("edited"))
	stage.MustInsert(Row{Int(-1), Str("added"), Int(0)})
	sameRows(t, "view after its gather was edited", view, want)
}

// TestViewReadWhileAppending: rows of a view are read with no lock while the
// table is written in place and appended to. Run with -race.
func TestViewReadWhileAppending(t *testing.T) {
	const n, more = 200, 2000
	src := viewSource(n)
	want := src.Rows()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		view := src.View()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					sameRows(t, "view read during writes", view, want)
				}
			}
		}()
	}
	// In-place writes first, while the table still has the views' backing.
	src.Set(0, 1, Str("edited"))
	if err := src.AlterColumnType("score", TypeFloat); err != nil {
		t.Error(err)
	}
	for i := n; i < n+more; i++ {
		src.MustInsert(Row{Int(int64(i + 1)), Str("new"), Float(0)})
	}
	close(stop)
	wg.Wait()
}
