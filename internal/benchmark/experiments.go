package benchmark

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/cvd"
	"repro/internal/deltastore"
	"repro/internal/partition"
	"repro/internal/provenance"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// This file is the experiment harness: every table and figure of the paper's
// evaluation has a function here that regenerates it (at laptop scale) and
// renders the same rows/series the paper reports. cmd/benchrunner and the
// root bench_test.go call into these functions.

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "== %s ==\n", t.Title)
	w := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, joinTabs(t.Columns))
	for _, r := range t.Rows {
		fmt.Fprintln(w, joinTabs(r))
	}
	w.Flush()
	return buf.String()
}

func joinTabs(ss []string) string {
	var b bytes.Buffer
	for i, s := range ss {
		if i > 0 {
			b.WriteByte('\t')
		}
		b.WriteString(s)
	}
	return b.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func d64(v int64) string  { return fmt.Sprintf("%d", v) }
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
}

// ---- Figure 4.1: data model comparison --------------------------------------

// Fig41Result is one (dataset, model) measurement.
type Fig41Result struct {
	Dataset      string
	Model        cvd.ModelKind
	StorageBytes int64
	CommitTime   time.Duration
	CheckoutTime time.Duration
}

// RunFig41 reproduces Figure 4.1: for each scaled SCI dataset and each of the
// five data models, it loads the workload, then measures the time to check
// out the latest version and commit it back unchanged, plus total storage.
func RunFig41(datasets []string, scale int) ([]Fig41Result, Table, error) {
	if len(datasets) == 0 {
		datasets = []string{"SCI_1K", "SCI_2K", "SCI_5K", "SCI_8K"}
	}
	models := []cvd.ModelKind{cvd.TablePerVersion, cvd.CombinedTable, cvd.SplitByVlist, cvd.SplitByRlist, cvd.DeltaBased}
	var results []Fig41Result
	for _, name := range datasets {
		cfg, err := Preset(name, scale)
		if err != nil {
			return nil, Table{}, err
		}
		cfg.Attributes = 10
		w, err := Generate(cfg)
		if err != nil {
			return nil, Table{}, err
		}
		for _, model := range models {
			db := relstore.NewDatabase("fig41")
			c, err := LoadCVD(db, "cvd", w, model)
			if err != nil {
				return nil, Table{}, fmt.Errorf("loading %s into %s: %w", name, model, err)
			}
			latest, _ := c.LatestVersion()

			start := time.Now()
			tab, err := c.Checkout([]vgraph.VersionID{latest}, "work")
			if err != nil {
				return nil, Table{}, err
			}
			checkoutTime := time.Since(start)

			start = time.Now()
			if _, err := c.CommitTable("work", "re-commit", "bench"); err != nil {
				return nil, Table{}, err
			}
			commitTime := time.Since(start)
			_ = tab

			results = append(results, Fig41Result{
				Dataset:      name,
				Model:        model,
				StorageBytes: c.StorageBytes(),
				CommitTime:   commitTime,
				CheckoutTime: checkoutTime,
			})
			c.Drop()
		}
	}
	table := Table{
		Title:   "Figure 4.1: data model comparison (storage / commit / checkout)",
		Columns: []string{"dataset", "model", "storage_bytes", "commit", "checkout"},
	}
	for _, r := range results {
		table.Rows = append(table.Rows, []string{r.Dataset, r.Model.String(), d64(r.StorageBytes), ms(r.CommitTime), ms(r.CheckoutTime)})
	}
	return results, table, nil
}

// ---- Table 5.2: dataset description ------------------------------------------

// RunTable52 regenerates the dataset description table for the scaled
// workloads.
func RunTable52(datasets []string, scale int) (Table, error) {
	if len(datasets) == 0 {
		datasets = []string{"SCI_10K", "SCI_50K", "SCI_100K", "CUR_10K", "CUR_50K"}
	}
	table := Table{
		Title:   "Table 5.2: dataset description (scaled)",
		Columns: []string{"dataset", "|V|", "|R|", "|E|", "|B|", "|I|", "|R^|"},
	}
	for _, name := range datasets {
		cfg, err := Preset(name, scale)
		if err != nil {
			return Table{}, err
		}
		w, err := Generate(cfg)
		if err != nil {
			return Table{}, err
		}
		s, err := w.Stats()
		if err != nil {
			return Table{}, err
		}
		table.Rows = append(table.Rows, []string{
			s.Name, fmt.Sprintf("%d", s.Versions), d64(s.Records), d64(s.BipartiteEdges),
			fmt.Sprintf("%d", s.Branches), fmt.Sprintf("%d", s.InsertsPerVersion), d64(s.DuplicatedRecords),
		})
	}
	return table, nil
}

// ---- Figure 5.7: checkout cost model validation -----------------------------

// RunFig57 validates the checkout cost model: checkout time (and rows read)
// grows linearly with the number of records in the partition, for the three
// join strategies and the two physical layouts.
func RunFig57(partitionSizes []int64, rlistSizes []int64) (Table, error) {
	if len(partitionSizes) == 0 {
		partitionSizes = []int64{2000, 5000, 10000, 20000}
	}
	if len(rlistSizes) == 0 {
		rlistSizes = []int64{100, 1000}
	}
	table := Table{
		Title:   "Figure 5.7: checkout cost model validation",
		Columns: []string{"join", "cluster", "|Rk|", "|rlist|", "time", "seq_reads", "rand_reads"},
	}
	joins := []relstore.JoinMethod{relstore.HashJoin, relstore.MergeJoin, relstore.IndexNestedLoopJoin}
	clusters := []relstore.ClusterMode{relstore.ClusterOnRID, relstore.ClusterOnPK}
	clusterName := map[relstore.ClusterMode]string{relstore.ClusterOnRID: "rid", relstore.ClusterOnPK: "pk"}
	rng := rand.New(rand.NewSource(3))
	for _, cluster := range clusters {
		for _, join := range joins {
			for _, rk := range partitionSizes {
				tab := relstore.NewTable("data", relstore.MustSchema([]relstore.Column{
					{Name: "rid", Type: relstore.TypeInt},
					{Name: "pk", Type: relstore.TypeInt},
					{Name: "val", Type: relstore.TypeInt},
				}, "rid"))
				for i := int64(0); i < rk; i++ {
					tab.MustInsert(relstore.Row{relstore.Int(i), relstore.Int(rk - i), relstore.Int(rng.Int63n(1000))})
				}
				if cluster == relstore.ClusterOnRID {
					if err := tab.SortBy(relstore.ClusterOnRID, "rid"); err != nil {
						return Table{}, err
					}
				} else {
					if err := tab.SortBy(relstore.ClusterOnPK, "pk"); err != nil {
						return Table{}, err
					}
				}
				for _, rl := range rlistSizes {
					if rl > rk {
						continue
					}
					rlist := make([]int64, rl)
					for i := range rlist {
						rlist[i] = int64(rng.Int63n(rk))
					}
					tab.Stats().Reset()
					start := time.Now()
					if _, err := relstore.JoinOnRIDs(tab, "rid", rlist, join); err != nil {
						return Table{}, err
					}
					elapsed := time.Since(start)
					st := *tab.Stats()
					table.Rows = append(table.Rows, []string{
						join.String(), clusterName[cluster], d64(rk), d64(rl), ms(elapsed), d64(st.SeqReads), d64(st.RandomReads),
					})
				}
			}
		}
	}
	return table, nil
}

// ---- Figure 5.8 / 5.20: storage vs checkout trade-off -----------------------

// TradeoffPoint is one partitioning scheme's cost.
type TradeoffPoint struct {
	Algorithm   string
	Parameter   string
	Storage     int64
	AvgCheckout float64
}

// RunFig58 sweeps the partitioners' parameters on a workload and reports the
// (storage, checkout) curve of each algorithm, in records (the estimated-cost
// variant of Figures 5.8, 5.20 and 5.21; wall-clock checkout on the physical
// store is measured by RunFig514).
func RunFig58(dataset string, scale int) ([]TradeoffPoint, Table, error) {
	cfg, err := Preset(dataset, scale)
	if err != nil {
		return nil, Table{}, err
	}
	w, err := Generate(cfg)
	if err != nil {
		return nil, Table{}, err
	}
	tree, err := w.Tree()
	if err != nil {
		return nil, Table{}, err
	}
	var points []TradeoffPoint
	for _, delta := range []float64{0.01, 0.03, 0.1, 0.3, 0.6, 0.9} {
		res, err := partition.LyreSplit(tree, delta, partition.LyreSplitOptions{})
		if err != nil {
			return nil, Table{}, err
		}
		cost := w.Bipartite.EvaluatePartitioning(res.Partitioning)
		points = append(points, TradeoffPoint{Algorithm: "LyreSplit", Parameter: fmt.Sprintf("delta=%.2f", delta), Storage: cost.Storage, AvgCheckout: cost.AvgCheckout})
	}
	caps := []int64{w.Bipartite.NumRecords() / 8, w.Bipartite.NumRecords() / 4, w.Bipartite.NumRecords() / 2, w.Bipartite.NumRecords()}
	for _, bc := range caps {
		p, err := partition.Agglo(w.Bipartite, partition.AggloOptions{Capacity: bc})
		if err != nil {
			return nil, Table{}, err
		}
		cost := w.Bipartite.EvaluatePartitioning(p)
		points = append(points, TradeoffPoint{Algorithm: "Agglo", Parameter: fmt.Sprintf("BC=%d", bc), Storage: cost.Storage, AvgCheckout: cost.AvgCheckout})
	}
	for _, k := range []int{2, 5, 10, 20} {
		p, err := partition.Kmeans(w.Bipartite, partition.KmeansOptions{K: k, Seed: 7})
		if err != nil {
			return nil, Table{}, err
		}
		cost := w.Bipartite.EvaluatePartitioning(p)
		points = append(points, TradeoffPoint{Algorithm: "Kmeans", Parameter: fmt.Sprintf("K=%d", k), Storage: cost.Storage, AvgCheckout: cost.AvgCheckout})
	}
	table := Table{
		Title:   fmt.Sprintf("Figures 5.8 / 5.20: storage vs checkout trade-off (%s)", dataset),
		Columns: []string{"algorithm", "parameter", "storage_records", "avg_checkout_records"},
	}
	for _, p := range points {
		table.Rows = append(table.Rows, []string{p.Algorithm, p.Parameter, d64(p.Storage), f2(p.AvgCheckout)})
	}
	return points, table, nil
}

// ---- Figures 5.10 / 5.12: partitioner running time --------------------------

// RunFig510 measures the end-to-end running time of answering Problem 5.1
// (γ = 2|R|) with LyreSplit, Agglo and Kmeans.
func RunFig510(datasets []string, scale int) (Table, error) {
	if len(datasets) == 0 {
		datasets = []string{"SCI_10K", "SCI_50K", "CUR_10K"}
	}
	table := Table{
		Title:   "Figures 5.10 / 5.12: partitioning algorithm running time (γ = 2|R|)",
		Columns: []string{"dataset", "algorithm", "total_time", "avg_checkout_records", "storage_records"},
	}
	for _, name := range datasets {
		cfg, err := Preset(name, scale)
		if err != nil {
			return Table{}, err
		}
		w, err := Generate(cfg)
		if err != nil {
			return Table{}, err
		}
		tree, err := w.Tree()
		if err != nil {
			return Table{}, err
		}
		gamma := 2 * w.Bipartite.NumRecords()

		start := time.Now()
		ls, err := partition.SolveStorageConstraint(tree, gamma, partition.LyreSplitOptions{})
		if err != nil {
			return Table{}, err
		}
		lsTime := time.Since(start)
		lsCost := w.Bipartite.EvaluatePartitioning(ls.Partitioning)
		table.Rows = append(table.Rows, []string{name, "LyreSplit", ms(lsTime), f2(lsCost.AvgCheckout), d64(lsCost.Storage)})

		start = time.Now()
		_, aggloCost, err := partition.SolveStorageConstraintAgglo(w.Bipartite, gamma, partition.AggloOptions{})
		if err != nil {
			return Table{}, err
		}
		aggloTime := time.Since(start)
		table.Rows = append(table.Rows, []string{name, "Agglo", ms(aggloTime), f2(aggloCost.AvgCheckout), d64(aggloCost.Storage)})

		start = time.Now()
		_, kmeansCost, err := partition.SolveStorageConstraintKmeans(w.Bipartite, gamma, partition.KmeansOptions{Seed: 7})
		if err != nil {
			return Table{}, err
		}
		kmeansTime := time.Since(start)
		table.Rows = append(table.Rows, []string{name, "Kmeans", ms(kmeansTime), f2(kmeansCost.AvgCheckout), d64(kmeansCost.Storage)})
	}
	return table, nil
}

// ---- Figures 5.14 / 5.15: benefit of partitioning ---------------------------

// RunFig514 loads a workload into a split-by-rlist CVD, measures checkout
// time and storage without partitioning and with LyreSplit partitioning at
// γ ∈ {1.5, 2}·|R|.
func RunFig514(datasets []string, scale int, sampleVersions int) (Table, error) {
	if len(datasets) == 0 {
		datasets = []string{"SCI_10K", "CUR_10K"}
	}
	if sampleVersions <= 0 {
		sampleVersions = 20
	}
	table := Table{
		Title:   "Figures 5.14 / 5.15: checkout time and storage, with vs. without partitioning",
		Columns: []string{"dataset", "scheme", "avg_checkout", "avg_checkout_records", "data_records", "storage_bytes"},
	}
	for _, name := range datasets {
		cfg, err := Preset(name, scale)
		if err != nil {
			return Table{}, err
		}
		cfg.Attributes = 10
		w, err := Generate(cfg)
		if err != nil {
			return Table{}, err
		}
		db := relstore.NewDatabase("fig514")
		c, err := LoadCVD(db, "cvd", w, cvd.SplitByRlist)
		if err != nil {
			return Table{}, err
		}
		m, err := c.Rlist()
		if err != nil {
			return Table{}, err
		}
		tree, err := vgraph.ToTree(c.Graph())
		if err != nil {
			return Table{}, err
		}
		sample := sampleVersionIDs(c.Versions(), sampleVersions)

		// measure returns the mean wall-clock time of a sample checkout and the
		// mean records it scans in the cost model: the paper's benefit of
		// partitioning is the second, since a checkout reads the version's
		// positions in the data table however the versions are partitioned.
		measure := func() (time.Duration, int64, error) {
			var total time.Duration
			before := db.Stats().SeqReads
			for i, v := range sample {
				start := time.Now()
				if _, err := c.Checkout([]vgraph.VersionID{v}, fmt.Sprintf("s%d", i)); err != nil {
					return 0, 0, err
				}
				total += time.Since(start)
				c.DiscardCheckout(fmt.Sprintf("s%d", i))
			}
			n := int64(len(sample))
			return total / time.Duration(n), (db.Stats().SeqReads - before) / n, nil
		}
		baseline, scanned, err := measure()
		if err != nil {
			return Table{}, err
		}
		table.Rows = append(table.Rows, []string{name, "without-partitioning", ms(baseline), d64(scanned), d64(m.DataRecordCount()), d64(c.StorageBytes())})

		for _, factor := range []float64{1.5, 2.0} {
			gamma := int64(factor * float64(tree.DistinctRecords()))
			res, err := partition.SolveStorageConstraint(tree, gamma, partition.LyreSplitOptions{})
			if err != nil {
				return Table{}, err
			}
			if err := m.ApplyPartitioning(res.Partitioning); err != nil {
				return Table{}, err
			}
			t, scanned, err := measure()
			if err != nil {
				return Table{}, err
			}
			table.Rows = append(table.Rows, []string{name, fmt.Sprintf("LyreSplit(gamma=%.1f|R|)", factor), ms(t), d64(scanned), d64(m.DataRecordCount()), d64(c.StorageBytes())})
		}
		c.Drop()
	}
	return table, nil
}

func sampleVersionIDs(vs []vgraph.VersionID, n int) []vgraph.VersionID {
	if len(vs) <= n {
		return vs
	}
	rng := rand.New(rand.NewSource(101))
	perm := rng.Perm(len(vs))
	out := make([]vgraph.VersionID, 0, n)
	for _, i := range perm[:n] {
		out = append(out, vs[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---- Figures 5.17 / 5.19: online maintenance and migration ------------------

// RunFig517 simulates streaming commits with online maintenance: it tracks
// the drift of the online checkout cost from the best achievable cost,
// triggers migrations at tolerance µ, and compares intelligent migration
// against naive rebuilds.
func RunFig517(dataset string, scale int, mu float64, gammaFactor float64) (Table, error) {
	if mu <= 1 {
		mu = 1.5
	}
	if gammaFactor <= 1 {
		gammaFactor = 2
	}
	cfg, err := Preset(dataset, scale)
	if err != nil {
		return Table{}, err
	}
	w, err := Generate(cfg)
	if err != nil {
		return Table{}, err
	}
	order := w.Graph.TopoOrder()
	// Replay the workload: partition after the first quarter, then stream the
	// rest with online maintenance, checking drift after every commit batch.
	cut := len(order) / 4
	if cut < 2 {
		cut = 2
	}
	streamed := vgraph.NewBipartite()
	streamedGraph := vgraph.New()
	addVersion := func(v vgraph.VersionID) error {
		streamed.SetVersion(v, w.Bipartite.Records(v))
		if _, err := streamedGraph.AddVersion(v, int64(len(w.Bipartite.Records(v)))); err != nil {
			return err
		}
		for _, p := range w.Graph.Parents(v) {
			if streamedGraph.Node(p) != nil {
				if err := streamedGraph.AddEdge(p, v, w.Bipartite.CommonRecords(p, v)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, v := range order[:cut] {
		if err := addVersion(v); err != nil {
			return Table{}, err
		}
	}
	tree, err := vgraph.ToTree(streamedGraph)
	if err != nil {
		return Table{}, err
	}
	gamma := int64(gammaFactor * float64(tree.DistinctRecords()))
	initial, err := partition.SolveStorageConstraint(tree, gamma, partition.LyreSplitOptions{})
	if err != nil {
		return Table{}, err
	}
	maintainer := partition.NewOnlineMaintainer(initial.Partitioning, initial.Delta, gamma, mu)

	table := Table{
		Title:   fmt.Sprintf("Figures 5.17 / 5.19: online maintenance and migration (µ=%.2f, γ=%.1f|R|)", mu, gammaFactor),
		Columns: []string{"versions_committed", "online_avg_checkout", "best_avg_checkout", "migration", "intelligent_mods", "naive_mods"},
	}
	migrations := 0
	for i := cut; i < len(order); i++ {
		v := order[i]
		if err := addVersion(v); err != nil {
			return Table{}, err
		}
		parents := streamedGraph.Parents(v)
		var bestParent vgraph.VersionID
		var shared int64
		for _, p := range parents {
			if e := streamedGraph.Edge(p, v); e != nil && e.Weight >= shared {
				shared, bestParent = e.Weight, p
			}
		}
		cur := maintainer.Partitioning()
		curCost := streamed.EvaluatePartitioning(cur)
		maintainer.OnCommit(v, bestParent, shared, streamed.NumRecords(), curCost.Storage)

		// Check drift every 10 commits (running LyreSplit after every commit is
		// cheap but the table would be enormous).
		if (i-cut)%10 != 9 && i != len(order)-1 {
			continue
		}
		tree, err = vgraph.ToTree(streamedGraph)
		if err != nil {
			return Table{}, err
		}
		gamma = int64(gammaFactor * float64(tree.DistinctRecords()))
		maintainer.Gamma = gamma
		drift, err := maintainer.CheckDrift(tree)
		if err != nil {
			return Table{}, err
		}
		migrated := "-"
		intelligentMods, naiveMods := int64(0), int64(0)
		if drift.TriggerMigration {
			best, err := partition.SolveStorageConstraint(tree, gamma, partition.LyreSplitOptions{})
			if err != nil {
				return Table{}, err
			}
			plan, err := partition.PlanMigration(streamed, maintainer.Partitioning(), best.Partitioning)
			if err != nil {
				return Table{}, err
			}
			intelligentMods = plan.EstimatedModifications
			naiveMods = streamed.EvaluatePartitioning(best.Partitioning).Storage
			maintainer.AdoptPartitioning(best.Partitioning, best.Delta)
			migrations++
			migrated = fmt.Sprintf("#%d", migrations)
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", i+1), f2(drift.CurrentAvgCheckout), f2(drift.BestAvgCheckout),
			migrated, d64(intelligentMods), d64(naiveMods),
		})
	}
	return table, nil
}

// ---- Chapter 7: compact delta storage ---------------------------------------

// RunCh7 reproduces the Section 7.5 experiments at small scale: it builds a
// collection of text dataset versions, constructs the candidate storage
// graph with a line-diff encoder, and reports total storage and recreation
// costs of MST, SPT, LMG and MP across a sweep of constraints, plus the
// algorithms' running time.
func RunCh7(numVersions int, seed int64) (Table, error) {
	if numVersions <= 0 {
		numVersions = 40
	}
	store, pairs := syntheticFileVersions(numVersions, seed)
	g, err := store.BuildGraph(pairs)
	if err != nil {
		return Table{}, err
	}
	table := Table{
		Title:   "Chapter 7 (§7.5): storage vs recreation across algorithms",
		Columns: []string{"algorithm", "constraint", "total_storage", "sum_recreation", "max_recreation", "time"},
	}
	addRow := func(name, constraint string, sol deltastore.Solution, elapsed time.Duration) error {
		costs, err := g.Evaluate(sol)
		if err != nil {
			return err
		}
		table.Rows = append(table.Rows, []string{name, constraint, f2(costs.TotalStorage), f2(costs.SumRecreation), f2(costs.MaxRecreation), ms(elapsed)})
		return nil
	}
	start := time.Now()
	mst, err := deltastore.MinimumStorage(g)
	if err != nil {
		return Table{}, err
	}
	if err := addRow("MST (Problem 7.1)", "-", mst, time.Since(start)); err != nil {
		return Table{}, err
	}
	mstCosts, _ := g.Evaluate(mst)

	start = time.Now()
	spt, err := deltastore.MinimumRecreation(g)
	if err != nil {
		return Table{}, err
	}
	if err := addRow("SPT (Problem 7.2)", "-", spt, time.Since(start)); err != nil {
		return Table{}, err
	}
	sptCosts, _ := g.Evaluate(spt)

	for _, factor := range []float64{1.5, 2, 3} {
		beta := factor * mstCosts.TotalStorage
		start = time.Now()
		sol, err := deltastore.MinSumRecreationUnderStorage(g, beta)
		if err != nil {
			return Table{}, err
		}
		if err := addRow("LMG (Problem 7.3)", fmt.Sprintf("C<=%.1f*MST", factor), sol, time.Since(start)); err != nil {
			return Table{}, err
		}
	}
	for _, factor := range []float64{1.5, 2, 4} {
		theta := factor * sptCosts.MaxRecreation
		start = time.Now()
		sol, err := deltastore.MinStorageUnderMaxRecreation(g, theta)
		if err != nil {
			return Table{}, err
		}
		if err := addRow("MP (Problem 7.6)", fmt.Sprintf("maxR<=%.1f*SPTmax", factor), sol, time.Since(start)); err != nil {
			return Table{}, err
		}
	}
	for _, factor := range []float64{2, 4} {
		theta := factor * sptCosts.SumRecreation
		start = time.Now()
		sol, err := deltastore.MinStorageUnderSumRecreation(g, theta)
		if err != nil {
			return Table{}, err
		}
		if err := addRow("LMG (Problem 7.5)", fmt.Sprintf("sumR<=%.1f*SPTsum", factor), sol, time.Since(start)); err != nil {
			return Table{}, err
		}
	}
	return table, nil
}

// syntheticFileVersions builds a branched collection of CSV-like text
// versions and the delta pairs to reveal (both directions of every
// derivation edge).
func syntheticFileVersions(n int, seed int64) (*deltastore.Store, [][2]int) {
	rng := rand.New(rand.NewSource(seed + 23))
	store := deltastore.NewStore(deltastore.LineDiff{})
	var contents [][]byte
	var pairs [][2]int
	var base bytes.Buffer
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&base, "gene%05d,%d,%d,%d\n", i, rng.Intn(1000), rng.Intn(1000), rng.Intn(1000))
	}
	contents = append(contents, base.Bytes())
	store.AddVersion(base.Bytes())
	for v := 2; v <= n; v++ {
		parent := rng.Intn(len(contents))
		lines := bytes.Split(bytes.TrimSuffix(contents[parent], []byte("\n")), []byte("\n"))
		out := make([][]byte, len(lines))
		copy(out, lines)
		for m := 0; m < 20; m++ {
			idx := rng.Intn(len(out))
			out[idx] = []byte(fmt.Sprintf("gene%05d,%d,%d,%d", idx, rng.Intn(1000), rng.Intn(1000), rng.Intn(1000)))
		}
		for m := 0; m < 5; m++ {
			out = append(out, []byte(fmt.Sprintf("gene%05d,%d,%d,%d", 10000+v*10+m, rng.Intn(1000), rng.Intn(1000), rng.Intn(1000))))
		}
		doc := append(bytes.Join(out, []byte("\n")), '\n')
		contents = append(contents, doc)
		store.AddVersion(doc)
		pairs = append(pairs, [2]int{parent + 1, v}, [2]int{v, parent + 1})
	}
	return store, pairs
}

// ---- Chapter 8: lineage inference -------------------------------------------

// RunCh8 reproduces the §8.8 preliminary evaluation: precision/recall of
// inferred lineage edges with and without the signature-based acceleration,
// together with the number of pairwise comparisons performed.
func RunCh8(numVersions int, seed int64) (Table, error) {
	if numVersions <= 0 {
		numVersions = 30
	}
	artifacts, truth := syntheticArtifacts(numVersions, seed)
	table := Table{
		Title:   "Chapter 8 (§8.8): lineage inference precision/recall",
		Columns: []string{"mode", "precision", "recall", "pairs_compared", "time"},
	}
	run := func(name string, opts provenance.Options) error {
		start := time.Now()
		res, err := provenance.InferLineage(artifacts, opts)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		q := truth.Evaluate(res.Edges)
		table.Rows = append(table.Rows, []string{name, f2(q.Precision), f2(q.Recall), fmt.Sprintf("%d", res.PairsCompared), ms(elapsed)})
		return nil
	}
	if err := run("exhaustive", provenance.Options{}); err != nil {
		return Table{}, err
	}
	if err := run("signature-pruned(k=5)", provenance.Options{UseSignatures: true, CandidateLimit: 5}); err != nil {
		return Table{}, err
	}
	if err := run("signature-pruned(k=3)", provenance.Options{UseSignatures: true, CandidateLimit: 3}); err != nil {
		return Table{}, err
	}
	return table, nil
}

// syntheticArtifacts builds a repository of derived tables with known
// lineage: chains and branches of row modifications over a base table.
func syntheticArtifacts(n int, seed int64) ([]provenance.Artifact, provenance.GroundTruth) {
	rng := rand.New(rand.NewSource(seed + 31))
	schema := relstore.MustSchema([]relstore.Column{
		{Name: "gene", Type: relstore.TypeString},
		{Name: "score", Type: relstore.TypeInt},
		{Name: "pvalue", Type: relstore.TypeFloat},
	})
	base := relstore.NewTable("t0", schema)
	for i := 0; i < 150; i++ {
		base.MustInsert(relstore.Row{relstore.Str(fmt.Sprintf("gene%04d", i)), relstore.Int(int64(rng.Intn(100))), relstore.Float(rng.Float64())})
	}
	ts := time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)
	artifacts := []provenance.Artifact{{Name: "dataset_v1.csv", ModTime: ts, Table: base}}
	var truth [][2]string
	for v := 2; v <= n; v++ {
		parentIdx := rng.Intn(len(artifacts))
		parent := artifacts[parentIdx]
		child := parent.Table.Clone(fmt.Sprintf("t%d", v))
		// Apply a random operation: update some rows, insert a few, or delete.
		switch rng.Intn(3) {
		case 0:
			for m := 0; m < 10; m++ {
				child.Set(rng.Intn(child.Len()), 1, relstore.Int(int64(rng.Intn(100))))
			}
		case 1:
			for m := 0; m < 8; m++ {
				child.AppendRow(relstore.Row{relstore.Str(fmt.Sprintf("new%04d_%d", v, m)), relstore.Int(int64(rng.Intn(100))), relstore.Float(rng.Float64())})
			}
		default:
			child.Shrink(child.Len() - 8)
		}
		name := fmt.Sprintf("dataset_v%d.csv", v)
		artifacts = append(artifacts, provenance.Artifact{Name: name, ModTime: ts.Add(time.Duration(v) * time.Hour), Table: child})
		truth = append(truth, [2]string{parent.Name, name})
	}
	return artifacts, provenance.NewGroundTruth(truth)
}
