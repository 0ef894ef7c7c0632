package cvd

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/recset"
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
	if _, err := m.OnlineAssign(1, 0, false); err == nil {
		t.Error("OnlineAssign on unpartitioned model should fail")
	}
	p := vgraph.NewPartitioning(map[vgraph.VersionID]int{1: 0, 2: 0, 3: 0, 4: 0})
	if err := m.ApplyPartitioning(p); err != nil {
		t.Fatal(err)
	}
	// Move v4 into a brand new partition.
	k, err := m.OnlineAssign(4, -1, true)
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
	if _, err := m.OnlineAssign(4, 99, false); err == nil {
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
// do — migrated, or a version placed online, a checkout is charged the scan of
// its partition, exactly the rows that partition holds, off the published
// state, while it reads the data table, the one table holding the records.
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
			if name := m.PartitionTableName(v); name != c.catalog.Name {
				t.Errorf("after %s: version %d reads %q, want %q", what, v, name, c.catalog.Name)
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
	if _, err := m.OnlineAssign(v5, -1, true); err != nil {
		t.Fatal(err)
	}
	scans("OnlineAssign")
}

// TestOnlineAssignTakesTheVersionsRecords: a version placed online in a new
// partition, or in one holding none of its records, brings all of its records
// into that partition's resident set, which DataRecordCount counts, and checks
// out whole.
func TestOnlineAssignTakesTheVersionsRecords(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	m, _ := c.Rlist()
	if err := m.ApplyPartitioning(vgraph.NewPartitioning(map[vgraph.VersionID]int{1: 0, 2: 0, 3: 1, 4: 1})); err != nil {
		t.Fatal(err)
	}
	v5, err := c.Commit([]vgraph.VersionID{1}, []relstore.Row{prow("NEW1", "NEW2", 1, 2, 3)}, proteinSchema(), "online", "t")
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		k     int
		fresh bool
	}{{-1, true}, {1, false}} {
		before := m.DataRecordCount()
		k, err := m.OnlineAssign(v5, step.k, step.fresh)
		if err != nil {
			t.Fatal(err)
		}
		set := c.recordSet(v5)
		if got := recset.AndLen(m.resident[k], set); got != set.Len() {
			t.Fatalf("partition %d holds %d of version %d's %d records", k, got, v5, set.Len())
		}
		if grew := m.DataRecordCount() - before; step.fresh && grew != set.Len() {
			t.Fatalf("a new partition for version %d grew DataRecordCount by %d, want %d", v5, grew, set.Len())
		}
		tab, err := c.Checkout([]vgraph.VersionID{v5}, "online")
		if err != nil {
			t.Fatal(err)
		}
		if int64(tab.Len()) != set.Len() {
			t.Fatalf("the checkout of version %d in partition %d returns %d rows, want %d", v5, k, tab.Len(), set.Len())
		}
		c.DiscardCheckout("online")
	}
}

// TestPartitioningRefusesAPlanThatDoesNotPlaceEveryVersion: ApplyPartitioning
// and Migrate refuse a plan that leaves a version in no partition, or places
// one in a partition the plan does not have, and change nothing when they do.
// An empty plan once published zero partitions, and the next commit panicked
// placing its version; a partition index past NumPartitions panicked building
// the resident sets; a partial plan left versions no checkout could read.
func TestPartitioningRefusesAPlanThatDoesNotPlaceEveryVersion(t *testing.T) {
	type plan = map[vgraph.VersionID]int
	bad := []struct {
		name string
		p    vgraph.Partitioning
	}{
		{"empty", vgraph.NewPartitioning(plan{})},
		{"partial", vgraph.NewPartitioning(plan{1: 0, 2: 0, 3: 1})},
		{"out of range", vgraph.Partitioning{Assignment: plan{1: 0, 2: 0, 3: 1, 4: 2}, NumPartitions: 2}},
		{"negative", vgraph.Partitioning{Assignment: plan{1: 0, 2: 0, 3: -1, 4: 1}, NumPartitions: 2}},
		{"no partitions", vgraph.Partitioning{Assignment: plan{1: 0, 2: 0, 3: 0, 4: 0}}},
		{"unknown version", vgraph.NewPartitioning(plan{1: 0, 2: 0, 3: 1, 4: 1, 9: 1})},
	}
	good := vgraph.NewPartitioning(plan{1: 0, 2: 0, 3: 1, 4: 1})
	badOps := []struct {
		name string
		ops  []MigrationOp
	}{
		{"op out of range", []MigrationOp{
			{NewPartition: 0, FromPartition: 0, Versions: []vgraph.VersionID{1, 2}},
			{NewPartition: 2, FromPartition: 1, Versions: []vgraph.VersionID{3, 4}},
		}},
		{"op negative", []MigrationOp{
			{NewPartition: 0, FromPartition: 0, Versions: []vgraph.VersionID{1, 2}},
			{NewPartition: -1, FromPartition: 1, Versions: []vgraph.VersionID{3, 4}},
		}},
		{"op out of range placing no version", []MigrationOp{
			{NewPartition: 0, FromPartition: 0, Versions: []vgraph.VersionID{1, 2}},
			{NewPartition: 1, FromPartition: 1, Versions: []vgraph.VersionID{3, 4}},
			{NewPartition: 7, FromPartition: -1},
		}},
		{"op partial", []MigrationOp{{NewPartition: 0, FromPartition: 0, Versions: []vgraph.VersionID{1, 2, 3}}}},
		{"op places a version twice", []MigrationOp{
			{NewPartition: 0, FromPartition: 0, Versions: []vgraph.VersionID{1, 2, 3}},
			{NewPartition: 1, FromPartition: 1, Versions: []vgraph.VersionID{3, 4}},
		}},
	}
	// stillWorks requires the published plan to be want, then a commit on
	// every version and a checkout of every version to succeed.
	stillWorks := func(t *testing.T, c *CVD, m *rlistModel, want []int, wantSizes []int64) {
		t.Helper()
		for v := vgraph.VersionID(1); v <= 4; v++ {
			if got := m.PartitionOf(v); got != want[v-1] {
				t.Fatalf("version %d is in partition %d after the refusal, want %d", v, got, want[v-1])
			}
		}
		if got := m.PartitionSizes(); !slices.Equal(got, wantSizes) {
			t.Fatalf("partition sizes %v after the refusal, want %v", got, wantSizes)
		}
		for _, v := range c.Versions() {
			nv, err := c.Commit([]vgraph.VersionID{v}, []relstore.Row{prow("A", "B", 1, 2, 3)}, proteinSchema(), "after", "")
			if err != nil {
				t.Fatalf("commit on version %d after the refusal: %v", v, err)
			}
			for _, w := range []vgraph.VersionID{v, nv} {
				if _, err := c.Checkout([]vgraph.VersionID{w}, "after"); err != nil {
					t.Fatalf("checkout of version %d after the refusal: %v", w, err)
				}
				c.DiscardCheckout("after")
			}
		}
	}
	for _, partitioned := range []bool{false, true} {
		setup := func(t *testing.T) (*CVD, *rlistModel, []int, []int64) {
			_, c := buildProteinCVD(t, SplitByRlist)
			m, err := c.Rlist()
			if err != nil {
				t.Fatal(err)
			}
			if partitioned {
				if err := m.ApplyPartitioning(good); err != nil {
					t.Fatal(err)
				}
			}
			var plan []int
			for v := vgraph.VersionID(1); v <= 4; v++ {
				plan = append(plan, m.PartitionOf(v))
			}
			return c, m, plan, m.PartitionSizes()
		}
		for _, tc := range bad {
			t.Run(fmt.Sprintf("partitioned=%v/ApplyPartitioning/%s", partitioned, tc.name), func(t *testing.T) {
				c, m, plan, sizes := setup(t)
				if err := m.ApplyPartitioning(tc.p); err == nil {
					t.Fatalf("ApplyPartitioning accepted %+v", tc.p)
				}
				stillWorks(t, c, m, plan, sizes)
			})
			t.Run(fmt.Sprintf("partitioned=%v/Migrate/%s", partitioned, tc.name), func(t *testing.T) {
				c, m, plan, sizes := setup(t)
				byPart := make(map[int][]vgraph.VersionID)
				for v, k := range tc.p.Assignment {
					byPart[k] = append(byPart[k], v)
				}
				var ops []MigrationOp
				for k, vs := range byPart {
					ops = append(ops, MigrationOp{NewPartition: k, FromPartition: -1, Versions: vs})
				}
				if _, err := m.Migrate(tc.p, ops); err == nil {
					t.Fatalf("Migrate accepted %+v", tc.p)
				}
				stillWorks(t, c, m, plan, sizes)
			})
		}
		for _, tc := range badOps {
			t.Run(fmt.Sprintf("partitioned=%v/Migrate/%s", partitioned, tc.name), func(t *testing.T) {
				c, m, plan, sizes := setup(t)
				if _, err := m.Migrate(good, tc.ops); partitioned && err == nil {
					t.Fatalf("Migrate accepted the plan %+v", tc.ops)
				} else if !partitioned {
					// Unpartitioned, Migrate builds good from scratch and
					// ignores the ops.
					if err != nil {
						t.Fatalf("Migrate from unpartitioned refused %+v: %v", good, err)
					}
					plan, sizes = []int{0, 0, 1, 1}, m.PartitionSizes()
				}
				stillWorks(t, c, m, plan, sizes)
			})
		}
	}
}
