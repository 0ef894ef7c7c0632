package relstore

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func newDataTable(t testing.TB, n int, cluster ClusterMode) *Table {
	t.Helper()
	tbl := NewTable("data", MustSchema([]Column{
		{Name: "rid", Type: TypeInt},
		{Name: "pk", Type: TypeInt},
		{Name: "val", Type: TypeInt},
	}, "rid"))
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, i := range perm {
		tbl.MustInsert(Row{Int(int64(i)), Int(int64(n - i)), Int(int64(i * 3))})
	}
	switch cluster {
	case ClusterOnRID:
		if err := tbl.SortBy(ClusterOnRID, "rid"); err != nil {
			t.Fatal(err)
		}
	case ClusterOnPK:
		if err := tbl.SortBy(ClusterOnPK, "pk"); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func ridsOf(rows []Row) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[0].AsInt()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestJoinMethodsAgree(t *testing.T) {
	for _, cluster := range []ClusterMode{ClusterNone, ClusterOnRID, ClusterOnPK} {
		tbl := newDataTable(t, 200, cluster)
		want := []int64{3, 17, 42, 99, 150, 199}
		for _, m := range []JoinMethod{HashJoin, MergeJoin, IndexNestedLoopJoin} {
			rows, err := JoinOnRIDs(tbl, "rid", want, m)
			if err != nil {
				t.Fatalf("cluster %v, %v: %v", cluster, m, err)
			}
			got := ridsOf(rows)
			if len(got) != len(want) {
				t.Fatalf("cluster %v, %v: got %d rows, want %d", cluster, m, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cluster %v, %v: got %v, want %v", cluster, m, got, want)
				}
			}
		}
	}
}

func TestJoinMissingRIDsIgnored(t *testing.T) {
	tbl := newDataTable(t, 50, ClusterOnRID)
	rows, err := JoinOnRIDs(tbl, "rid", []int64{10, 1000, 20}, HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("got %d rows, want 2 (missing rid skipped)", len(rows))
	}
}

func TestJoinErrors(t *testing.T) {
	tbl := newDataTable(t, 10, ClusterNone)
	if _, err := JoinOnRIDs(tbl, "nope", []int64{1}, HashJoin); err == nil {
		t.Error("join on missing column should error")
	}
	if _, err := JoinOnRIDs(tbl, "rid", []int64{1}, JoinMethod(99)); err == nil {
		t.Error("unknown join method should error")
	}
	// index-nested-loop requires index on the rid column
	noIdx := NewTable("noidx", MustSchema([]Column{{Name: "rid", Type: TypeInt}}))
	noIdx.MustInsert(Row{Int(1)})
	if _, err := JoinOnRIDs(noIdx, "rid", []int64{1}, IndexNestedLoopJoin); err == nil {
		t.Error("index-nested-loop without index should error")
	}
}

func TestHashJoinCostIsLinearInTableSize(t *testing.T) {
	tbl := newDataTable(t, 1000, ClusterOnPK)
	tbl.Stats().Reset()
	_, err := JoinOnRIDs(tbl, "rid", []int64{1, 2, 3}, HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	st := *tbl.Stats()
	if st.SeqReads != 1000 {
		t.Errorf("hash join SeqReads = %d, want 1000 (full scan)", st.SeqReads)
	}
	if st.RandomReads != 0 {
		t.Errorf("hash join RandomReads = %d, want 0", st.RandomReads)
	}
}

func TestIndexNestedLoopCostIsLinearInRIDList(t *testing.T) {
	tbl := newDataTable(t, 1000, ClusterOnRID)
	tbl.Stats().Reset()
	rids := []int64{5, 6, 7, 8}
	_, err := JoinOnRIDs(tbl, "rid", rids, IndexNestedLoopJoin)
	if err != nil {
		t.Fatal(err)
	}
	st := *tbl.Stats()
	if st.RandomReads != int64(len(rids)) {
		t.Errorf("INL RandomReads = %d, want %d", st.RandomReads, len(rids))
	}
	if st.SeqReads != 0 {
		t.Errorf("INL SeqReads = %d, want 0", st.SeqReads)
	}
}

func TestMergeJoinCostDependsOnClustering(t *testing.T) {
	clustered := newDataTable(t, 500, ClusterOnRID)
	clustered.Stats().Reset()
	if _, err := JoinOnRIDs(clustered, "rid", []int64{1, 2}, MergeJoin); err != nil {
		t.Fatal(err)
	}
	seqClustered := clustered.Stats().SeqReads

	unclustered := newDataTable(t, 500, ClusterOnPK)
	unclustered.Stats().Reset()
	if _, err := JoinOnRIDs(unclustered, "rid", []int64{1, 2}, MergeJoin); err != nil {
		t.Fatal(err)
	}
	seqUnclustered := unclustered.Stats().SeqReads

	if seqUnclustered <= seqClustered {
		t.Errorf("merge join on unclustered table should cost more: clustered=%d unclustered=%d", seqClustered, seqUnclustered)
	}
}

// Property: for random rid subsets all three join methods return exactly the
// requested existing rids.
func TestJoinEquivalenceProperty(t *testing.T) {
	tbl := newDataTable(t, 300, ClusterOnRID)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(50)
		rids := make([]int64, 0, k)
		seen := map[int64]struct{}{}
		for len(rids) < k {
			r := int64(rng.Intn(300))
			if _, dup := seen[r]; dup {
				continue
			}
			seen[r] = struct{}{}
			rids = append(rids, r)
		}
		var results [3][]int64
		for i, m := range []JoinMethod{HashJoin, MergeJoin, IndexNestedLoopJoin} {
			rows, err := JoinOnRIDs(tbl, "rid", rids, m)
			if err != nil {
				return false
			}
			results[i] = ridsOf(rows)
		}
		for i := 1; i < 3; i++ {
			if len(results[i]) != len(results[0]) {
				return false
			}
			for j := range results[0] {
				if results[i][j] != results[0][j] {
					return false
				}
			}
		}
		return len(results[0]) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCostStatsDiffAndString(t *testing.T) {
	a := CostStats{SeqReads: 10, RandomReads: 2, RowsWritten: 1, HashProbes: 5}
	b := CostStats{SeqReads: 25, RandomReads: 4, RowsWritten: 3, HashProbes: 9}
	d := a.Diff(b)
	if d.SeqReads != 15 || d.RandomReads != 2 || d.RowsWritten != 2 || d.HashProbes != 4 {
		t.Errorf("Diff = %+v", d)
	}
	if d.TotalReads() != 17 {
		t.Errorf("TotalReads = %d, want 17", d.TotalReads())
	}
	var s CostStats
	s.Add(a)
	s.Add(b)
	if s.SeqReads != 35 {
		t.Errorf("Add: SeqReads = %d, want 35", s.SeqReads)
	}
	if s.String() == "" {
		t.Error("String should not be empty")
	}
	s.Reset()
	if s.SeqReads != 0 {
		t.Error("Reset failed")
	}
}

func BenchmarkHashJoin(b *testing.B) {
	tbl := newDataTable(b, 100000, ClusterOnRID)
	rids := make([]int64, 10000)
	for i := range rids {
		rids[i] = int64(i * 7 % 100000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := JoinOnRIDs(tbl, "rid", rids, HashJoin); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexNestedLoopJoin(b *testing.B) {
	tbl := newDataTable(b, 100000, ClusterOnRID)
	rids := make([]int64, 10000)
	for i := range rids {
		rids[i] = int64(i * 7 % 100000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := JoinOnRIDs(tbl, "rid", rids, IndexNestedLoopJoin); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCatalogLookup looks random rids up in a live record catalog: 64 K
// rows inserted in rid order from 1, so every key is within the rid run.
func BenchmarkCatalogLookup(b *testing.B) {
	const n = 64000
	tbl := NewTable("catalog", MustSchema([]Column{{Name: "rid", Type: TypeInt}, {Name: "val", Type: TypeInt}}, "rid"))
	for rid := int64(1); rid <= n; rid++ {
		tbl.MustInsert(Row{Int(rid), Int(rid * 3)})
	}
	keys := make([]Value, 1<<14)
	r := rand.New(rand.NewSource(7))
	for i := range keys {
		keys[i] = Int(int64(r.Intn(n) + 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tbl.LookupIndex(keys[i&(len(keys)-1)]); !ok {
			b.Fatal("a catalog rid was not found")
		}
	}
}
