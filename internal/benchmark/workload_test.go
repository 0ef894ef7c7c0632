package benchmark

import (
	"testing"

	"repro/internal/cvd"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

func smallSCI(t testing.TB) *Workload {
	t.Helper()
	cfg, err := Preset("SCI_1K", 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func smallCUR(t testing.TB) *Workload {
	t.Helper()
	cfg, err := Preset("CUR_10K", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TargetRecords = 2000
	cfg.InsertsPerVersion = 40
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPresetNamesResolve(t *testing.T) {
	for name := range presets {
		cfg, err := Preset(name, 1)
		if err != nil {
			t.Errorf("Preset(%s): %v", name, err)
			continue
		}
		if cfg.Name != name {
			t.Errorf("Preset(%s).Name = %q", name, cfg.Name)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("Preset(%s) invalid: %v", name, err)
		}
	}
	if _, err := Preset("NOPE", 1); err == nil {
		t.Error("unknown preset should error")
	}
	// Scale multiplies records.
	c1, _ := Preset("SCI_10K", 1)
	c2, _ := Preset("SCI_10K", 3)
	if c2.TargetRecords != 3*c1.TargetRecords {
		t.Errorf("scale not applied: %d vs %d", c2.TargetRecords, c1.TargetRecords)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Branches: 0, TargetRecords: 10, InsertsPerVersion: 1},
		{Branches: 1, TargetRecords: 0, InsertsPerVersion: 1},
		{Branches: 1, TargetRecords: 10, InsertsPerVersion: 0},
		{Branches: 1, TargetRecords: 10, InsertsPerVersion: 1, UpdateFraction: 1.5},
		{Branches: 1, TargetRecords: 10, InsertsPerVersion: 1, UpdateFraction: 0.8, DeleteFraction: 0.5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	ok := Config{Kind: CUR, Branches: 2, TargetRecords: 100, InsertsPerVersion: 5}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if ok.VersionsPerBranch == 0 || ok.Attributes == 0 || ok.MergeEvery == 0 {
		t.Error("defaults not applied")
	}
}

func TestGenerateSCIShape(t *testing.T) {
	w := smallSCI(t)
	stats, err := w.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Versions != w.Config.Branches*w.Config.VersionsPerBranch {
		t.Errorf("|V| = %d, want %d", stats.Versions, w.Config.Branches*w.Config.VersionsPerBranch)
	}
	// Record count lands within 50% of the target.
	if stats.Records < w.Config.TargetRecords/2 || stats.Records > w.Config.TargetRecords*2 {
		t.Errorf("|R| = %d, want near %d", stats.Records, w.Config.TargetRecords)
	}
	// SCI is a tree: no merges, no duplicated records.
	if !w.Graph.IsTree() {
		t.Error("SCI workload should produce a version tree")
	}
	if stats.DuplicatedRecords != 0 {
		t.Errorf("SCI |R̂| = %d, want 0", stats.DuplicatedRecords)
	}
	// Every non-root version has exactly one parent and shares records with it.
	for _, v := range w.Graph.Versions() {
		parents := w.Graph.Parents(v)
		if v == 1 {
			if len(parents) != 0 {
				t.Errorf("root has parents %v", parents)
			}
			continue
		}
		if len(parents) != 1 {
			t.Errorf("version %d has %d parents, want 1", v, len(parents))
		}
		if e := w.Graph.Edge(parents[0], v); e == nil || e.Weight == 0 {
			t.Errorf("version %d shares no records with its parent", v)
		}
	}
	// Bipartite edges exceed distinct records (versions share records).
	if stats.BipartiteEdges <= stats.Records {
		t.Errorf("|E| = %d should exceed |R| = %d", stats.BipartiteEdges, stats.Records)
	}
}

func TestGenerateCURHasMerges(t *testing.T) {
	w := smallCUR(t)
	if w.Graph.IsTree() {
		t.Fatal("CUR workload should contain merges")
	}
	merges := 0
	for _, v := range w.Graph.Versions() {
		if len(w.Graph.Parents(v)) > 1 {
			merges++
		}
	}
	if merges == 0 {
		t.Error("expected at least one merge version")
	}
	stats, err := w.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DuplicatedRecords < 0 {
		t.Errorf("|R̂| = %d", stats.DuplicatedRecords)
	}
	tree, err := w.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Errorf("tree conversion invalid: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg, _ := Preset("SCI_1K", 1)
	w1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w1.Bipartite.NumRecords() != w2.Bipartite.NumRecords() || w1.Bipartite.NumEdges() != w2.Bipartite.NumEdges() {
		t.Error("generation is not deterministic for a fixed seed")
	}
}

func TestWorkloadRows(t *testing.T) {
	w := smallSCI(t)
	rows := w.Rows(1)
	if int64(len(rows)) != int64(len(w.Bipartite.Records(1))) {
		t.Fatalf("Rows(1) = %d rows, want %d", len(rows), len(w.Bipartite.Records(1)))
	}
	if len(rows[0]) != w.Config.Attributes {
		t.Errorf("row width = %d, want %d", len(rows[0]), w.Config.Attributes)
	}
	// Keys are unique within a version (the schema's primary key).
	seen := map[int64]bool{}
	for _, r := range rows {
		k := r[0].AsInt()
		if seen[k] {
			t.Fatalf("duplicate key %d in version 1", k)
		}
		seen[k] = true
	}
}

func TestLoadCVDMatchesWorkload(t *testing.T) {
	cfg := Config{Kind: SCI, Name: "tiny", Branches: 4, VersionsPerBranch: 3, TargetRecords: 300, InsertsPerVersion: 20, Attributes: 6, UpdateFraction: 0.3, DeleteFraction: 0.05, Seed: 7}
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db := relstore.NewDatabase("bench")
	c, err := LoadCVD(db, "tiny", w, cvd.SplitByRlist)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumVersions() != w.Bipartite.NumVersions() {
		t.Fatalf("CVD has %d versions, workload has %d", c.NumVersions(), w.Bipartite.NumVersions())
	}
	// Version sizes agree.
	for _, v := range w.Graph.Versions() {
		want := len(w.Bipartite.Records(v))
		got := len(c.RecordsOf(v))
		if got != want {
			t.Errorf("version %d: CVD has %d records, workload has %d", v, got, want)
		}
	}
	// Distinct record counts agree (content-diff reconstructs identity).
	if c.NumRecords() != w.Bipartite.NumRecords() {
		t.Errorf("CVD |R| = %d, workload |R| = %d", c.NumRecords(), w.Bipartite.NumRecords())
	}
	// Checkout of a leaf version returns the right rows.
	leaves := w.Graph.Leaves()
	leaf := leaves[len(leaves)-1]
	tab, err := c.Checkout([]vgraph.VersionID{leaf}, "leafco")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != len(w.Bipartite.Records(leaf)) {
		t.Errorf("checkout(%d) = %d rows, want %d", leaf, tab.Len(), len(w.Bipartite.Records(leaf)))
	}
}

func TestLoadCVDCurWorkload(t *testing.T) {
	cfg := Config{Kind: CUR, Name: "tinycur", Branches: 3, VersionsPerBranch: 4, TargetRecords: 300, InsertsPerVersion: 15, Attributes: 6, UpdateFraction: 0.2, DeleteFraction: 0.02, MergeEvery: 2, Seed: 11}
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db := relstore.NewDatabase("bench")
	c, err := LoadCVD(db, "tinycur", w, cvd.SplitByRlist)
	if err != nil {
		t.Fatal(err)
	}
	// A merged version keeps both parents in the CVD graph.
	foundMerge := false
	for _, v := range c.Versions() {
		if len(c.Parents(v)) > 1 {
			foundMerge = true
		}
	}
	if !foundMerge {
		t.Error("CVD lost merge structure")
	}
}
