package cvd

import (
	"testing"

	"repro/internal/relstore"
	"repro/internal/vgraph"
)

func TestApplyPartitioningAndCheckout(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	m, err := c.Rlist()
	if err != nil {
		t.Fatal(err)
	}
	if m.Partitioned() {
		t.Fatal("model should start unpartitioned")
	}
	if m.PartitionOf(1) != -1 {
		t.Error("unpartitioned model should report -1 partitions")
	}
	// Partition as in Figure 5.1(b): P1 = {v1, v2}, P2 = {v3, v4}.
	p := vgraph.NewPartitioning(map[vgraph.VersionID]int{1: 0, 2: 0, 3: 1, 4: 1})
	if err := m.ApplyPartitioning(p); err != nil {
		t.Fatal(err)
	}
	if !m.Partitioned() {
		t.Fatal("model should be partitioned")
	}
	sizes := m.PartitionSizes()
	if len(sizes) != 2 {
		t.Fatalf("partition sizes = %v, want 2 partitions", sizes)
	}
	// P1 holds R(v1) ∪ R(v2) = 4 records; P2 holds R(v3) ∪ R(v4) = 6 records.
	if sizes[0]+sizes[1] != 10 {
		t.Errorf("total partitioned records = %d, want 10 (with duplication)", sizes[0]+sizes[1])
	}
	if m.DataRecordCount() != 10 {
		t.Errorf("DataRecordCount = %d, want 10", m.DataRecordCount())
	}
	// Checkout of every version still returns the correct contents.
	wantSizes := map[vgraph.VersionID]int{1: 3, 2: 3, 3: 4, 4: 6}
	for v, n := range wantSizes {
		tab, err := c.Checkout([]vgraph.VersionID{v}, "pc")
		if err != nil {
			t.Fatalf("checkout v%d after partitioning: %v", v, err)
		}
		if tab.Len() != n {
			t.Errorf("checkout(v%d) = %d rows, want %d", v, tab.Len(), n)
		}
		c.DiscardCheckout("pc")
	}
	// Checkout cost is bounded by the partition size, not the full table.
	db := cdb(t, c)
	db.ResetStats()
	if _, err := c.Checkout([]vgraph.VersionID{1}, "cost"); err != nil {
		t.Fatal(err)
	}
	c.DiscardCheckout("cost")
	if reads := db.Stats().SeqReads; reads > 6 {
		t.Errorf("checkout of v1 scanned %d rows; partition P1 only has 4", reads)
	}
}

// cdb extracts the backing database from a CVD through its staging behaviour.
func cdb(t *testing.T, c *CVD) *relstore.Database { t.Helper(); return c.db }

func TestCommitAfterPartitioningRoutesToParentPartition(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	m, _ := c.Rlist()
	p := vgraph.NewPartitioning(map[vgraph.VersionID]int{1: 0, 2: 0, 3: 1, 4: 1})
	if err := m.ApplyPartitioning(p); err != nil {
		t.Fatal(err)
	}
	// Commit v5 derived from v4 (partition 1): it should land in partition 1.
	rows := []relstore.Row{prow("NEW1", "NEW2", 1, 2, 3)}
	v5, err := c.Commit([]vgraph.VersionID{4}, rows, proteinSchema(), "post-partition commit", "")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.PartitionOf(v5); got != m.PartitionOf(4) {
		t.Errorf("v5 in partition %d, want parent's partition %d", got, m.PartitionOf(4))
	}
	tab, err := c.Checkout([]vgraph.VersionID{v5}, "v5co")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 {
		t.Errorf("checkout(v5) = %d rows, want 1", tab.Len())
	}
	c.DiscardCheckout("v5co")
}

func TestOnlineAssignNewPartition(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	m, _ := c.Rlist()
	if _, err := m.OnlineAssign(1, 0, false, nil); err == nil {
		t.Error("OnlineAssign on unpartitioned model should fail")
	}
	p := vgraph.NewPartitioning(map[vgraph.VersionID]int{1: 0, 2: 0, 3: 0, 4: 0})
	if err := m.ApplyPartitioning(p); err != nil {
		t.Fatal(err)
	}
	// Move v4 into a brand new partition.
	rids := c.RecordsOf(4)
	k, err := m.OnlineAssign(4, -1, true, rids)
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Errorf("new partition index = %d, want 1", k)
	}
	if m.PartitionOf(4) != 1 {
		t.Errorf("v4 partition = %d, want 1", m.PartitionOf(4))
	}
	sizes := m.PartitionSizes()
	if len(sizes) != 2 || sizes[1] != 6 {
		t.Errorf("partition sizes = %v, want second partition with 6 records", sizes)
	}
	if _, err := m.OnlineAssign(4, 99, false, rids); err == nil {
		t.Error("out-of-range partition index should fail")
	}
}

func TestMigrate(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	m, _ := c.Rlist()
	// Start from {v1,v2 | v3,v4}.
	p1 := vgraph.NewPartitioning(map[vgraph.VersionID]int{1: 0, 2: 0, 3: 1, 4: 1})
	if err := m.ApplyPartitioning(p1); err != nil {
		t.Fatal(err)
	}
	// Migrate to {v1 | v2, v3, v4}, reusing old partition 1 for the new big
	// partition and rebuilding the singleton.
	p2 := vgraph.NewPartitioning(map[vgraph.VersionID]int{1: 0, 2: 1, 3: 1, 4: 1})
	plan := []MigrationOp{
		{NewPartition: 0, FromPartition: -1, Versions: []vgraph.VersionID{1}},
		{NewPartition: 1, FromPartition: 1, Versions: []vgraph.VersionID{2, 3, 4}},
	}
	res, err := m.Migrate(p2, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionsBuilt != 1 {
		t.Errorf("PartitionsBuilt = %d, want 1", res.PartitionsBuilt)
	}
	if res.RecordsInserted == 0 {
		t.Error("expected some inserted records")
	}
	// All versions still check out correctly.
	wantSizes := map[vgraph.VersionID]int{1: 3, 2: 3, 3: 4, 4: 6}
	for v, n := range wantSizes {
		tab, err := c.Checkout([]vgraph.VersionID{v}, "mig")
		if err != nil {
			t.Fatalf("checkout v%d after migration: %v", v, err)
		}
		if tab.Len() != n {
			t.Errorf("checkout(v%d) = %d rows, want %d", v, tab.Len(), n)
		}
		c.DiscardCheckout("mig")
	}
	// New assignment is in effect.
	if m.PartitionOf(2) != m.PartitionOf(4) {
		t.Error("v2 and v4 should share a partition after migration")
	}
	if m.PartitionOf(1) == m.PartitionOf(2) {
		t.Error("v1 should be alone after migration")
	}
}

func TestMigrateFromUnpartitionedFallsBackToRebuild(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	m, _ := c.Rlist()
	p := vgraph.NewPartitioning(map[vgraph.VersionID]int{1: 0, 2: 0, 3: 1, 4: 1})
	res, err := m.Migrate(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionsBuilt != 2 {
		t.Errorf("PartitionsBuilt = %d, want 2", res.PartitionsBuilt)
	}
	if !m.Partitioned() {
		t.Error("model should be partitioned after migration")
	}
}

func TestRlistAccessorOnOtherModelFails(t *testing.T) {
	_, c := buildProteinCVD(t, CombinedTable)
	if _, err := c.Rlist(); err == nil {
		t.Error("Rlist() on a combined-table CVD should fail")
	}
}

// TestCheckoutReadsItsPartition: once a partitioning is applied — through
// Rlist without WithExclusive, as the examples and the Chapter 5 experiments
// do — migrated, or a version placed online, a checkout scans its partition's
// table, no more rows than that partition holds, off the published state.
func TestCheckoutReadsItsPartition(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	m, _ := c.Rlist()
	scans := func(what string) {
		t.Helper()
		sizes := m.PartitionSizes()
		for _, v := range c.Versions() {
			c.db.ResetStats()
			if _, err := c.Checkout([]vgraph.VersionID{v}, "scan"); err != nil {
				t.Fatal(err)
			}
			c.DiscardCheckout("scan")
			k := m.PartitionOf(v)
			if got := c.db.Stats().SeqReads; k < 0 || got != sizes[k] {
				t.Errorf("after %s: the checkout of version %d scans %d rows, want its partition %d's %d (sizes %v)", what, v, got, k, sizes[k], sizes)
			}
			if name := m.PartitionTableName(v); name != m.partTabName(k) {
				t.Errorf("after %s: version %d reads %q, want %q", what, v, name, m.partTabName(k))
			}
		}
	}
	if err := m.ApplyPartitioning(vgraph.NewPartitioning(map[vgraph.VersionID]int{1: 0, 2: 0, 3: 1, 4: 1})); err != nil {
		t.Fatal(err)
	}
	scans("ApplyPartitioning")
	plan := []MigrationOp{
		{NewPartition: 0, FromPartition: -1, Versions: []vgraph.VersionID{1}},
		{NewPartition: 1, FromPartition: 1, Versions: []vgraph.VersionID{2, 3, 4}},
	}
	if _, err := m.Migrate(vgraph.NewPartitioning(map[vgraph.VersionID]int{1: 0, 2: 1, 3: 1, 4: 1}), plan); err != nil {
		t.Fatal(err)
	}
	scans("Migrate")
	v5, err := c.Commit([]vgraph.VersionID{1}, []relstore.Row{prow("NEW1", "NEW2", 1, 2, 3)}, proteinSchema(), "online", "t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.OnlineAssign(v5, -1, true, c.RecordsOf(v5)); err != nil {
		t.Fatal(err)
	}
	scans("OnlineAssign")
}
