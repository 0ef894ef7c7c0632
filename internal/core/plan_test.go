package core

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/benchmark"
	"repro/internal/cvd"
	"repro/internal/partition"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// TestPartitioningCopiesNoRecord: Optimize, Migrate and OnlineAssign change a
// CVD's partitioning, a plan, and no table: after each the database holds no
// partition table, and what it stores (Database.StorageBytes) is what it
// stored before Optimize.
func TestPartitioningCopiesNoRecord(t *testing.T) {
	e := Open("plan")
	buildRandomCVD(t, rand.New(rand.NewSource(99)), e, "d", nil)
	db := e.Database()
	stored := db.StorageBytes()
	tables := db.TableNames()
	same := func(when string) {
		t.Helper()
		for _, name := range db.TableNames() {
			if strings.Contains(name, "_part") {
				t.Fatalf("after %s the database holds table %q", when, name)
			}
		}
		if got := db.StorageBytes(); got != stored {
			t.Fatalf("after %s the database stores %d bytes, %d before Optimize", when, got, stored)
		}
		if got := db.TableNames(); !slices.Equal(got, tables) {
			t.Fatalf("after %s the database holds tables %v, %v before Optimize", when, got, tables)
		}
	}
	if _, err := e.Optimize("d", 1.5); err != nil {
		t.Fatal(err)
	}
	same("Optimize")
	c, _ := e.CVD("d")
	m, err := c.Rlist()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PartitionSizes()) < 2 {
		t.Fatalf("Optimize made partitions %v, want two or more", m.PartitionSizes())
	}
	all := c.Versions()
	one := make(map[vgraph.VersionID]int, len(all))
	for _, v := range all {
		one[v] = 0
	}
	plan := []cvd.MigrationOp{{NewPartition: 0, FromPartition: 0, Versions: all}}
	if _, err := m.Migrate(vgraph.NewPartitioning(one), plan); err != nil {
		t.Fatal(err)
	}
	same("Migrate")

	latest, _ := c.LatestVersion()
	rows := padRows(checkoutRows(t, e, "d", latest, "online"), len(c.Schema().Columns))
	v, err := c.Commit([]vgraph.VersionID{latest}, rows[1:], c.Schema(), "online", "t")
	if err != nil {
		t.Fatal(err)
	}
	stored, tables = db.StorageBytes(), db.TableNames()
	if _, err := m.OnlineAssign(v, -1, true); err != nil {
		t.Fatal(err)
	}
	same("OnlineAssign")
}

// applyPartitioningBytes is what applying SCI_10K's LyreSplit partitioning at
// γ = 2|R| allocated when each partition was a table holding a copy of its
// records (measured by TestApplyPartitioningAllocations at that build): 272
// times what the partitioning's resident sets encode in.
const applyPartitioningBytes = 8_940_936

// TestApplyPartitioningAllocations gates the bytes ApplyPartitioning
// allocates on SCI_10K at γ = 2|R|: the partitioning's resident sets, within
// four times their encoded size, and the assignment, where a copy of the
// partitions' records allocated applyPartitioningBytes. It counts bytes,
// which the race detector inflates, so it skips under -race; CI runs it in
// the memory-gate step.
func TestApplyPartitioningAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("counts allocated bytes; the memory gates run without the race detector")
	}
	cfg, err := benchmark.Preset("SCI_10K", 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := benchmark.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := benchmark.LoadCVD(relstore.NewDatabase("alloc"), "d", w, cvd.SplitByRlist)
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Rlist()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := vgraph.ToTree(c.Graph())
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.SolveStorageConstraint(tree, 2*tree.DistinctRecords(), partition.LyreSplitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var bytes []uint64
	for i := 0; i < 5; i++ {
		bytes = append(bytes, allocated(func() {
			if err := m.ApplyPartitioning(res.Partitioning); err != nil {
				t.Fatal(err)
			}
		}))
	}
	sort.Slice(bytes, func(i, j int) bool { return bytes[i] < bytes[j] })
	got := bytes[len(bytes)/2]
	_, resident := planOf(c)
	var encoded, records int64
	for _, rs := range resident {
		encoded += int64(len(rs.AppendBinary(nil)))
		records += rs.Len()
	}
	bound := 4*encoded + 8*int64(c.NumVersions())
	t.Logf("%d partitions of %d records: ApplyPartitioning allocates %d B; the resident sets encode in %d B; a copy of the records allocated %d B", len(resident), records, got, encoded, applyPartitioningBytes)
	if int64(got) > bound {
		t.Errorf("ApplyPartitioning allocates %d B, want <= %d (four times the resident sets' %d encoded bytes, and the assignment)", got, bound, encoded)
	}
}
