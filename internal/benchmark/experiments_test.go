package benchmark

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cvd"
)

// The experiment harness tests run every experiment at the smallest scale and
// check the qualitative claims of the paper hold (who wins, roughly by what
// factor), not absolute numbers.

func TestRunFig41Shape(t *testing.T) {
	results, table, err := RunFig41([]string{"SCI_1K"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("expected 5 model results, got %d", len(results))
	}
	byModel := map[cvd.ModelKind]Fig41Result{}
	for _, r := range results {
		byModel[r.Model] = r
	}
	// Figure 4.1(a): a-table-per-version storage far exceeds split-by-rlist.
	if byModel[cvd.TablePerVersion].StorageBytes < 2*byModel[cvd.SplitByRlist].StorageBytes {
		t.Errorf("a-table-per-version storage %d should be well above split-by-rlist %d",
			byModel[cvd.TablePerVersion].StorageBytes, byModel[cvd.SplitByRlist].StorageBytes)
	}
	// Figure 4.1(b): split-by-rlist commit is not slower than combined-table.
	if byModel[cvd.SplitByRlist].CommitTime > byModel[cvd.CombinedTable].CommitTime*2 {
		t.Errorf("split-by-rlist commit %v should not be much slower than combined-table %v",
			byModel[cvd.SplitByRlist].CommitTime, byModel[cvd.CombinedTable].CommitTime)
	}
	if !strings.Contains(table.String(), "split-by-rlist") {
		t.Error("rendered table missing model rows")
	}
}

func TestRunTable52(t *testing.T) {
	table, err := RunTable52([]string{"SCI_10K", "CUR_10K"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(table.Rows))
	}
	if table.Rows[0][0] != "SCI_10K" {
		t.Errorf("first row = %v", table.Rows[0])
	}
}

func TestRunFig57(t *testing.T) {
	table, err := RunFig57([]int64{1000, 4000}, []int64{100})
	if err != nil {
		t.Fatal(err)
	}
	// 2 cluster modes × 3 joins × 2 partition sizes × 1 rlist size.
	if len(table.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(table.Rows))
	}
}

func TestRunFig58Shape(t *testing.T) {
	points, _, err := RunFig58("SCI_10K", 1)
	if err != nil {
		t.Fatal(err)
	}
	// LyreSplit's curve must contain at least one point that dominates the
	// single-partition extreme (storage modestly above |R|, checkout far
	// below |R|).
	algos := map[string]bool{}
	for _, p := range points {
		algos[p.Algorithm] = true
	}
	for _, want := range []string{"LyreSplit", "Agglo", "Kmeans"} {
		if !algos[want] {
			t.Errorf("missing %s points", want)
		}
	}
}

func TestRunFig510(t *testing.T) {
	table, err := RunFig510([]string{"SCI_10K"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (one per algorithm)", len(table.Rows))
	}
}

func TestRunFig514(t *testing.T) {
	table, err := RunFig514([]string{"SCI_10K"}, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	// baseline + two gamma settings.
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(table.Rows))
	}
}

func TestRunFig517(t *testing.T) {
	table, err := RunFig517("SCI_10K", 1, 1.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) == 0 {
		t.Fatal("no drift rows produced")
	}
}

func TestRunConcurrent(t *testing.T) {
	// Small dataset so per-checkout compute stays far below the simulated
	// round trip: the speedup then reflects request overlap, which must hold
	// on any machine (including single-CPU CI runners).
	results, table, err := RunConcurrent(ConcurrentConfig{
		Dataset:            "SCI_1K",
		Clients:            []int{1, 8},
		CheckoutsPerClient: 6,
		SimLatency:         5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	if results[0].Clients != 1 || results[1].Clients != 8 {
		t.Fatalf("client counts = %d, %d", results[0].Clients, results[1].Clients)
	}
	for _, r := range results {
		if r.Checkouts != r.Clients*6 {
			t.Errorf("%d clients: %d checkouts, want %d", r.Clients, r.Checkouts, r.Clients*6)
		}
		if r.Throughput <= 0 {
			t.Errorf("%d clients: non-positive throughput %f", r.Clients, r.Throughput)
		}
	}
	// The acceptance bar of the concurrent execution layer: 8 concurrent
	// clients must clear at least 1.5x the single-client throughput.
	if results[1].Speedup < 1.5 {
		t.Errorf("8-client speedup = %.2f, want >= 1.5\n%s", results[1].Speedup, table)
	}
}

func TestRunDurable(t *testing.T) {
	report, table, err := RunDurable("SCI_1K", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Results) != 5 {
		t.Fatalf("results = %d, want 5\n%s", len(report.Results), table)
	}
	if report.SnapshotBytes <= 0 || report.WALBytes <= 0 {
		t.Errorf("empty artifacts: snapshot %d bytes, WAL %d bytes", report.SnapshotBytes, report.WALBytes)
	}
	// The acceptance bar of the durable subsystem: recovering the engine from
	// its binary snapshot must be at least 2x faster than re-ingesting every
	// version from CSV.
	if report.RestoreSpeedupVsCSV < 2 {
		t.Errorf("snapshot restore speedup vs CSV re-init = %.2fx, want >= 2x\n%s", report.RestoreSpeedupVsCSV, table)
	}
	if _, err := report.JSON(); err != nil {
		t.Fatal(err)
	}
}

// TestRunDurableIncremental is the incremental-checkpoint acceptance gate:
// on a large seeded CVD, a checkpoint after a small-delta burst must reuse
// almost everything (bytes written and chunks rewritten both <= 15% of the
// full checkpoint's), and the sampled lane codecs must shrink the flat
// snapshot >= 2x vs identity encodings. Both are counts that repeat exactly;
// how much faster the incremental checkpoint runs depends on the machine, so
// it is logged, not asserted. SCI_50K is deliberate — on smaller presets the
// always-re-encoded tail bands dominate and the margins vanish.
func TestRunDurableIncremental(t *testing.T) {
	report, table, err := RunDurableIncremental("SCI_50K", 1)
	if err != nil {
		t.Fatal(err)
	}
	// The first checkpoint writes essentially everything; the pack may still
	// dedup the odd pair of identical small bands by content.
	if report.Full.ChunksWritten < report.Full.Chunks*9/10 {
		t.Errorf("full checkpoint wrote only %d of %d chunks", report.Full.ChunksWritten, report.Full.Chunks)
	}
	if report.Incremental.ChunksWritten >= report.Incremental.Chunks {
		t.Errorf("incremental checkpoint reused no chunks (%d/%d written)\n%s",
			report.Incremental.ChunksWritten, report.Incremental.Chunks, table)
	}
	if report.BytesWrittenRatio > 0.15 {
		t.Errorf("incremental checkpoint wrote %.1f%% of full-checkpoint bytes, want <= 15%%\n%s",
			report.BytesWrittenRatio*100, table)
	}
	if got, limit := report.Incremental.ChunksWritten, report.Incremental.Chunks*15/100; got > limit {
		t.Errorf("incremental checkpoint rewrote %d of %d chunks, want <= %d (15%%)\n%s",
			got, report.Incremental.Chunks, limit, table)
	}
	t.Logf("incremental checkpoint ran %.2fx faster than the full one (not asserted)", report.Speedup)
	if report.CompressionRatio < 2 {
		t.Errorf("lane codecs shrink the snapshot %.2fx, want >= 2x\n%s", report.CompressionRatio, table)
	}
	if _, err := report.JSON(); err != nil {
		t.Fatal(err)
	}
}

func TestRunCh7(t *testing.T) {
	table, err := RunCh7(15, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) < 5 {
		t.Fatalf("rows = %d, want at least MST/SPT/LMG/MP entries", len(table.Rows))
	}
}

func TestRunCh8(t *testing.T) {
	table, err := RunCh8(15, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(table.Rows))
	}
}
