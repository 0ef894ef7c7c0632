package partition_test

import (
	"testing"

	"repro/internal/benchmark"
	"repro/internal/cvd"
	"repro/internal/relstore"
	"repro/internal/vgraph"

	. "repro/internal/partition"
)

func TestOnlineMaintainerOnCommit(t *testing.T) {
	initial := vgraph.NewPartitioning(map[vgraph.VersionID]int{1: 0, 2: 0})
	o := NewOnlineMaintainer(initial, 0.1, 1000, 1.5)

	// Version 3 shares many records with its parent 2 -> joins partition 0.
	dec := o.OnCommit(3, 2, 90, 100, 120)
	if dec.NewPartition || dec.Partition != 0 {
		t.Errorf("high-overlap commit should join parent's partition: %+v", dec)
	}
	// Version 4 shares few records with parent 3 and storage is under γ ->
	// new partition.
	dec = o.OnCommit(4, 3, 5, 100, 120)
	if !dec.NewPartition {
		t.Errorf("low-overlap commit should open a new partition: %+v", dec)
	}
	// Version 5 shares few records but storage is at the threshold -> join.
	dec = o.OnCommit(5, 4, 5, 100, 1000)
	if dec.NewPartition {
		t.Errorf("commit at the storage threshold should not open a partition: %+v", dec)
	}
	// A version whose parent is unknown starts its own partition.
	dec = o.OnCommit(10, 99, 0, 100, 0)
	if !dec.NewPartition {
		t.Error("unknown parent should force a new partition")
	}
	p := o.Partitioning()
	if len(p.Assignment) != 6 {
		t.Errorf("maintainer tracks %d versions, want 6", len(p.Assignment))
	}
}

func TestOnlineMaintainerDriftAndAdopt(t *testing.T) {
	cfg := benchmark.Config{Kind: benchmark.SCI, Name: "drift", Branches: 8, VersionsPerBranch: 6,
		TargetRecords: 2000, InsertsPerVersion: 60, Attributes: 6, UpdateFraction: 0.3, Seed: 21}
	w, err := benchmark.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := w.Tree()
	if err != nil {
		t.Fatal(err)
	}
	gamma := 2 * tree.DistinctRecords()
	// Deliberately bad current partitioning: everything in one partition.
	all := map[vgraph.VersionID]int{}
	for _, v := range tree.SubtreeVersions(tree.Root) {
		all[v] = 0
	}
	o := NewOnlineMaintainer(vgraph.NewPartitioning(all), 0.1, gamma, 1.5)
	dec, err := o.CheckDrift(tree)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.TriggerMigration {
		t.Errorf("single-partition layout should exceed µ=1.5 drift: cur=%g best=%g", dec.CurrentAvgCheckout, dec.BestAvgCheckout)
	}
	// Adopt the optimizer's partitioning; drift disappears.
	best, err := SolveStorageConstraint(tree, gamma, LyreSplitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o.AdoptPartitioning(best.Partitioning, best.Delta)
	dec, err = o.CheckDrift(tree)
	if err != nil {
		t.Fatal(err)
	}
	if dec.TriggerMigration {
		t.Errorf("freshly adopted partitioning should not trigger migration: cur=%g best=%g", dec.CurrentAvgCheckout, dec.BestAvgCheckout)
	}
}

func TestPlanMigrationReusesClosePartitions(t *testing.T) {
	w := smallBipartite(t)
	versions := w.Bipartite.Versions()
	// Old: split versions in half by id. New: same split with a handful of
	// versions moved, so both new partitions should reuse old ones.
	old := map[vgraph.VersionID]int{}
	new_ := map[vgraph.VersionID]int{}
	for i, v := range versions {
		if i < len(versions)/2 {
			old[v] = 0
		} else {
			old[v] = 1
		}
		if i < len(versions)/2+2 {
			new_[v] = 0
		} else {
			new_[v] = 1
		}
	}
	oldP := vgraph.NewPartitioning(old)
	newP := vgraph.NewPartitioning(new_)
	plan, err := PlanMigration(w.Bipartite, oldP, newP)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Ops) != newP.NumPartitions {
		t.Fatalf("plan has %d ops, want %d", len(plan.Ops), newP.NumPartitions)
	}
	reused := 0
	for _, op := range plan.Ops {
		if op.FromPartition >= 0 {
			reused++
		}
	}
	if reused != 2 {
		t.Errorf("expected both partitions to be transformed in place, got %d", reused)
	}
	// The intelligent plan's modification estimate is below a full rebuild.
	full := w.Bipartite.EvaluatePartitioning(newP).Storage
	if plan.EstimatedModifications >= full {
		t.Errorf("intelligent migration (%d mods) should beat full rebuild (%d records)", plan.EstimatedModifications, full)
	}
	if _, err := PlanMigration(nil, oldP, newP); err == nil {
		t.Error("nil bipartite graph should fail")
	}
}

func TestEndToEndOnlinePartitioningWithMigration(t *testing.T) {
	// Streaming scenario of Section 5.5.4 in miniature: load a CVD, partition
	// it, commit more versions with online maintenance, detect drift, plan an
	// intelligent migration and apply it; checkouts stay correct throughout.
	cfg := benchmark.Config{Kind: benchmark.SCI, Name: "online", Branches: 4, VersionsPerBranch: 4,
		TargetRecords: 600, InsertsPerVersion: 30, Attributes: 6, UpdateFraction: 0.3, Seed: 33}
	w, err := benchmark.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db := relstore.NewDatabase("db")
	c, err := benchmark.LoadCVD(db, "online", w, cvd.SplitByRlist)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := vgraph.ToTree(c.Graph())
	if err != nil {
		t.Fatal(err)
	}
	gamma := 2 * tree.DistinctRecords()
	res, err := SolveStorageConstraint(tree, gamma, LyreSplitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Rlist()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ApplyPartitioning(res.Partitioning); err != nil {
		t.Fatal(err)
	}
	o := NewOnlineMaintainer(res.Partitioning, res.Delta, gamma, 1.2)

	// Commit 10 new versions, each derived from the current latest version.
	latest, _ := c.LatestVersion()
	for i := 0; i < 10; i++ {
		rows := w.Rows(latest)
		// Append a handful of new rows so each commit adds records.
		for j := 0; j < 20; j++ {
			row := make(relstore.Row, len(w.Schema.Columns))
			row[0] = relstore.Int(int64(1_000_000 + i*100 + j))
			for k := 1; k < len(row); k++ {
				row[k] = relstore.Int(int64(j * k))
			}
			rows = append(rows, row)
		}
		v, err := c.Commit([]vgraph.VersionID{latest}, rows, w.Schema, "stream", "")
		if err != nil {
			t.Fatal(err)
		}
		shared := c.Graph().Edge(latest, v).Weight
		dec := o.OnCommit(v, latest, shared, c.NumRecords(), m.DataRecordCount())
		if _, err := m.OnlineAssign(v, dec.Partition, dec.NewPartition); err != nil {
			t.Fatal(err)
		}
		latest = v
	}
	// Checkouts remain correct after online maintenance.
	tab, err := c.Checkout([]vgraph.VersionID{latest}, "onlineco")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != len(c.RecordsOf(latest)) {
		t.Errorf("checkout after online maintenance has %d rows, want %d", tab.Len(), len(c.RecordsOf(latest)))
	}
	c.DiscardCheckout("onlineco")

	// Recompute the best partitioning, plan an intelligent migration, apply.
	tree2, err := vgraph.ToTree(c.Graph())
	if err != nil {
		t.Fatal(err)
	}
	best, err := SolveStorageConstraint(tree2, 2*tree2.DistinctRecords(), LyreSplitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanMigration(c.Bipartite(), o.Partitioning(), best.Partitioning)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Migrate(best.Partitioning, plan.Ops); err != nil {
		t.Fatal(err)
	}
	o.AdoptPartitioning(best.Partitioning, best.Delta)
	// All versions still check out with the right number of records.
	for _, v := range c.Versions() {
		tab, err := c.Checkout([]vgraph.VersionID{v}, "postmig")
		if err != nil {
			t.Fatalf("checkout v%d after migration: %v", v, err)
		}
		if tab.Len() != len(c.RecordsOf(v)) {
			t.Errorf("checkout(v%d) = %d rows, want %d", v, tab.Len(), len(c.RecordsOf(v)))
		}
		c.DiscardCheckout("postmig")
	}
}
