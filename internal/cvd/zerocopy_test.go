package cvd

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// The zero-copy checkout fast path shares column backing between the data
// tables and checkout staging tables (copy-on-write per column since the
// columnar layout; it was per-row sharing before). The tests here pin down
// the boundary: staging-table mutation must never leak into the CVD's
// stored versions, mutating one column must not disturb its siblings'
// sharing, and concurrent checkouts plus staging edits must be race-free
// (run with -race).

// TestZeroCopyStagingMutationIsolation edits a staging table through every
// mutating path (UpdateWhere, AddColumn, AlterColumnType) and verifies a
// fresh checkout of the same version still sees the original data.
func TestZeroCopyStagingMutationIsolation(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)

	work, err := c.Checkout([]vgraph.VersionID{1}, "work")
	if err != nil {
		t.Fatalf("checkout: %v", err)
	}
	nIdx := work.Schema.ColumnIndex("neighborhood")
	if _, err := work.UpdateWhere(
		func(r relstore.Row) bool { return true },
		func(r relstore.Row) relstore.Row { r[nIdx] = relstore.Int(999); return r },
	); err != nil {
		t.Fatalf("UpdateWhere: %v", err)
	}
	if err := work.AddColumn(relstore.Column{Name: "note", Type: relstore.TypeString}); err != nil {
		t.Fatalf("AddColumn: %v", err)
	}
	if err := work.AlterColumnType("cooccurrence", relstore.TypeFloat); err != nil {
		t.Fatalf("AlterColumnType: %v", err)
	}

	// A second checkout of version 1 must see the original values.
	fresh, err := c.Checkout([]vgraph.VersionID{1}, "fresh")
	if err != nil {
		t.Fatalf("fresh checkout: %v", err)
	}
	fIdx := fresh.Schema.ColumnIndex("neighborhood")
	coIdx := fresh.Schema.ColumnIndex("cooccurrence")
	for _, r := range fresh.Rows() {
		if r[fIdx].AsInt() == 999 {
			t.Fatalf("staging UpdateWhere leaked into the stored version: %v", r)
		}
		if r[coIdx].Type == relstore.TypeFloat {
			t.Fatalf("staging AlterColumnType leaked into the stored version: %v", r)
		}
	}
	if fresh.Schema.HasColumn("note") {
		t.Fatal("staging AddColumn leaked into the stored version's schema")
	}
	if len(fresh.RowAt(0)) != len(fresh.Schema.Columns) {
		t.Fatalf("fresh checkout row width %d != schema width %d", len(fresh.RowAt(0)), len(fresh.Schema.Columns))
	}
}

// TestZeroCopyColumnSharingBoundary pins the per-column copy-on-write
// boundary itself: a checkout that covers its whole backing table shares
// every column vector outright, and rewriting one column breaks exactly that
// column's sharing — the siblings keep referencing the data table's backing.
func TestZeroCopyColumnSharingBoundary(t *testing.T) {
	db := relstore.NewDatabase("zc")
	schema := relstore.MustSchema([]relstore.Column{
		{Name: "gene", Type: relstore.TypeString},
		{Name: "score", Type: relstore.TypeInt},
	}, "gene")
	rows := []relstore.Row{
		{relstore.Str("g1"), relstore.Int(10)},
		{relstore.Str("g2"), relstore.Int(20)},
		{relstore.Str("g3"), relstore.Int(30)},
	}
	c, err := Init(db, "zc_cvd", schema, rows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A single-version CVD: version 1 covers the whole data table, so the
	// staging table shares the column backing instead of gathering copies.
	work, err := c.Checkout([]vgraph.VersionID{1}, "work")
	if err != nil {
		t.Fatalf("checkout: %v", err)
	}
	width := len(work.Schema.Columns)
	if got := work.SharedColumns(); got != width {
		t.Fatalf("full-cover checkout shares %d of %d columns, want all", got, width)
	}
	// Rewriting one column copies that column only.
	sIdx := work.Schema.ColumnIndex("score")
	work.Set(0, sIdx, relstore.Int(999))
	if got := work.SharedColumns(); got != width-1 {
		t.Fatalf("after one-column edit %d of %d columns still shared, want %d", got, width, width-1)
	}
	// The edit stayed in the staging table.
	fresh, err := c.Checkout([]vgraph.VersionID{1}, "fresh")
	if err != nil {
		t.Fatalf("fresh checkout: %v", err)
	}
	if got := fresh.At(0, fresh.Schema.ColumnIndex("score")).AsInt(); got == 999 {
		t.Fatal("staging Set leaked into the stored version")
	}
	// AddColumn allocates a new column without touching shared siblings.
	if err := work.AddColumn(relstore.Column{Name: "note", Type: relstore.TypeString}); err != nil {
		t.Fatal(err)
	}
	if got := work.SharedColumns(); got != width-1 {
		t.Fatalf("AddColumn disturbed sharing: %d shared, want %d", got, width-1)
	}
}

// TestZeroCopyConcurrentCheckoutsAndEdits runs parallel checkouts of a
// partitioned CVD while each goroutine mutates its own staging table; with
// shared column backing this exercises the per-column copy-on-write paths
// under -race.
func TestZeroCopyConcurrentCheckoutsAndEdits(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	m, err := c.Rlist()
	if err != nil {
		t.Fatal(err)
	}
	// Two partitions, so checkouts are charged their partitions' scans.
	if err := m.ApplyPartitioning(vgraph.NewPartitioning(map[vgraph.VersionID]int{1: 0, 2: 0, 3: 1, 4: 1})); err != nil {
		t.Fatalf("ApplyPartitioning: %v", err)
	}
	c.SetWorkers(4)

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := vgraph.VersionID(g%4 + 1)
			for i := 0; i < 10; i++ {
				tab := fmt.Sprintf("zc_%d_%d", g, i)
				work, err := c.Checkout([]vgraph.VersionID{v}, tab)
				if err != nil {
					errs[g] = err
					return
				}
				nIdx := work.Schema.ColumnIndex("neighborhood")
				if _, err := work.UpdateWhere(
					func(r relstore.Row) bool { return true },
					func(r relstore.Row) relstore.Row { r[nIdx] = relstore.Int(int64(g)); return r },
				); err != nil {
					errs[g] = err
					return
				}
				c.DiscardCheckout(tab)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}

	// After all the concurrent staging edits, stored versions are intact.
	final, err := c.Checkout([]vgraph.VersionID{1}, "final")
	if err != nil {
		t.Fatalf("final checkout: %v", err)
	}
	if final.Len() != 3 {
		t.Fatalf("version 1 has %d rows after concurrent edits, want 3", final.Len())
	}
	nIdx := final.Schema.ColumnIndex("neighborhood")
	want := map[string]int64{"ENSP273047": 0, "ENSP300413": 426}
	for _, r := range final.Rows() {
		if w, ok := want[r[1].AsString()]; ok && r[nIdx].AsInt() != w {
			t.Fatalf("stored version mutated: row %v", r)
		}
	}
}

// TestZeroCopyCommitAfterStagingEdit checks the full checkout → edit →
// commit round trip still produces the right new version under column
// sharing.
func TestZeroCopyCommitAfterStagingEdit(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	work, err := c.Checkout([]vgraph.VersionID{1}, "work")
	if err != nil {
		t.Fatalf("checkout: %v", err)
	}
	nIdx := work.Schema.ColumnIndex("neighborhood")
	p2Idx := work.Schema.ColumnIndex("protein2")
	if _, err := work.UpdateWhere(
		func(r relstore.Row) bool { return r[p2Idx].AsString() == "ENSP261890" },
		func(r relstore.Row) relstore.Row { r[nIdx] = relstore.Int(777); return r },
	); err != nil {
		t.Fatalf("UpdateWhere: %v", err)
	}
	v5, err := c.CommitTable("work", "recalibrated", "alice")
	if err != nil {
		t.Fatalf("CommitTable: %v", err)
	}
	got, err := c.Checkout([]vgraph.VersionID{v5}, "v5")
	if err != nil {
		t.Fatalf("checkout v5: %v", err)
	}
	found := false
	gn := got.Schema.ColumnIndex("neighborhood")
	gp2 := got.Schema.ColumnIndex("protein2")
	for _, r := range got.Rows() {
		if r[gp2].AsString() == "ENSP261890" {
			found = true
			if r[gn].AsInt() != 777 {
				t.Fatalf("committed edit lost: %v", r)
			}
		}
	}
	if !found {
		t.Fatal("edited row missing from committed version")
	}
	// And version 1 still has the original value.
	orig, err := c.Checkout([]vgraph.VersionID{1}, "orig")
	if err != nil {
		t.Fatalf("checkout v1: %v", err)
	}
	for _, r := range orig.Rows() {
		if r[gp2].AsString() == "ENSP261890" && r[gn].AsInt() != 0 {
			t.Fatalf("version 1 mutated by commit: %v", r)
		}
	}
}
