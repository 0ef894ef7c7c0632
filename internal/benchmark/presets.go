package benchmark

import (
	"fmt"
	"sort"

	"repro/internal/cvd"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// Presets mirror the datasets of Table 5.2, scaled down by roughly 100×
// (SCI_1M → SCI_10K and so on) so the full evaluation runs on a laptop. The
// proportions between |V|, |R|, |B| and |I| follow the table; Scale can be
// raised to approach the paper's sizes.

// presets are the named dataset configurations at scale 1, before Preset
// fills in the attributes, update/delete fractions and seed they share.
var presets = map[string]Config{
	// SCI_1K..SCI_8K scale down the SCI_1M..SCI_8M series of Figure 4.1
	// (data-model comparison); they are small because the
	// a-table-per-version model materializes every version in full.
	"SCI_1K": {Kind: SCI, Branches: 10, VersionsPerBranch: 5, TargetRecords: 1_000, InsertsPerVersion: 20},
	"SCI_2K": {Kind: SCI, Branches: 10, VersionsPerBranch: 5, TargetRecords: 2_000, InsertsPerVersion: 40},
	"SCI_5K": {Kind: SCI, Branches: 10, VersionsPerBranch: 5, TargetRecords: 5_000, InsertsPerVersion: 100},
	"SCI_8K": {Kind: SCI, Branches: 10, VersionsPerBranch: 5, TargetRecords: 8_000, InsertsPerVersion: 160},
	// SCI_1M in the paper: |V|=1K, |R|=944K, |B|=100, |I|=1000.
	"SCI_10K":  {Kind: SCI, Branches: 20, VersionsPerBranch: 5, TargetRecords: 10_000, InsertsPerVersion: 100},
	"SCI_20K":  {Kind: SCI, Branches: 20, VersionsPerBranch: 5, TargetRecords: 20_000, InsertsPerVersion: 200},
	"SCI_50K":  {Kind: SCI, Branches: 20, VersionsPerBranch: 5, TargetRecords: 50_000, InsertsPerVersion: 500},
	"SCI_80K":  {Kind: SCI, Branches: 20, VersionsPerBranch: 5, TargetRecords: 80_000, InsertsPerVersion: 800},
	"SCI_100K": {Kind: SCI, Branches: 50, VersionsPerBranch: 10, TargetRecords: 100_000, InsertsPerVersion: 100},
	"CUR_10K":  {Kind: CUR, Branches: 20, VersionsPerBranch: 5, TargetRecords: 10_000, InsertsPerVersion: 100, MergeEvery: 3},
	"CUR_50K":  {Kind: CUR, Branches: 20, VersionsPerBranch: 5, TargetRecords: 50_000, InsertsPerVersion: 500, MergeEvery: 3},
	"CUR_100K": {Kind: CUR, Branches: 50, VersionsPerBranch: 10, TargetRecords: 100_000, InsertsPerVersion: 100, MergeEvery: 4},
}

// Preset returns a named dataset configuration. Known names: SCI_1K,
// SCI_2K, SCI_5K, SCI_8K, SCI_10K, SCI_20K, SCI_50K, SCI_80K, SCI_100K,
// CUR_10K, CUR_50K, CUR_100K. The scale multiplier scales record counts and
// inserts (1 = default laptop scale).
func Preset(name string, scale int) (Config, error) {
	if scale <= 0 {
		scale = 1
	}
	cfg, ok := presets[name]
	if !ok {
		return Config{}, fmt.Errorf("benchmark: unknown preset %q", name)
	}
	cfg.Name = name
	cfg.TargetRecords *= int64(scale)
	cfg.InsertsPerVersion *= scale
	cfg.Attributes = 20
	cfg.UpdateFraction = 0.3
	cfg.DeleteFraction = 0.02
	cfg.Seed = 42
	return cfg, nil
}

// LoadCVD commits every version of a workload into a fresh CVD (in
// topological order, preserving the derivation edges) using the requested
// data model, and returns it. This is the bridge between the synthetic
// workloads and the physical storage layer used by the Figure 4.1 and
// Chapter 5 experiments.
func LoadCVD(db *relstore.Database, name string, w *Workload, model cvd.ModelKind) (*cvd.CVD, error) {
	order := w.Graph.TopoOrder()
	if len(order) == 0 {
		return nil, fmt.Errorf("benchmark: workload has no versions")
	}
	c, err := cvd.Init(db, name, w.Schema, w.Rows(order[0]), cvd.Options{
		Model:   model,
		Author:  "benchmark",
		Message: "initial version",
	})
	if err != nil {
		return nil, err
	}
	// Workload version ids were assigned in commit order, and CVD ids are
	// assigned the same way, so ids line up as long as we commit in id order.
	rest := append([]vgraph.VersionID(nil), order[1:]...)
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	for _, v := range rest {
		parents := w.Graph.Parents(v)
		got, err := c.Commit(parents, w.Rows(v), w.Schema, fmt.Sprintf("benchmark version %d", v), "benchmark")
		if err != nil {
			return nil, fmt.Errorf("benchmark: committing version %d: %w", v, err)
		}
		if got != v {
			return nil, fmt.Errorf("benchmark: version id mismatch: committed %d, expected %d", got, v)
		}
	}
	return c, nil
}
