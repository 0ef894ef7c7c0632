// Package main_test holds the repository-level benchmarks: one testing.B
// benchmark per table/figure of the paper's evaluation, each delegating to
// the experiment harness in internal/benchmark. Run them with
//
//	go test -bench=. -benchmem
//
// cmd/benchrunner prints the full result tables (the benchmarks here focus on
// timing one representative configuration each so `go test -bench` stays
// fast).
package main_test

import (
	"testing"

	"repro/internal/benchmark"
)

// BenchmarkFig4_1_DataModels times the Figure 4.1 experiment (storage, commit
// and checkout across the five data models) on the smallest scaled dataset.
func BenchmarkFig4_1_DataModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := benchmark.RunFig41([]string{"SCI_1K"}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTab5_2_DatasetStats times workload generation and the Table 5.2
// statistics.
func BenchmarkTab5_2_DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchmark.RunTable52([]string{"SCI_10K", "CUR_10K"}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5_7_CostModel times the checkout cost model validation sweep
// (join strategy × physical layout × partition size).
func BenchmarkFig5_7_CostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchmark.RunFig57([]int64{2000, 5000}, []int64{100, 1000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5_8_Tradeoff times the storage-vs-checkout parameter sweep of
// LyreSplit, Agglo and Kmeans (Figures 5.8 and 5.20).
func BenchmarkFig5_8_Tradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := benchmark.RunFig58("SCI_10K", 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5_10_PartitionerRuntime times solving Problem 5.1 (γ = 2|R|)
// with all three partitioners (Figures 5.10 and 5.12).
func BenchmarkFig5_10_PartitionerRuntime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchmark.RunFig510([]string{"SCI_10K"}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5_14_PartitionBenefit times the with-vs-without-partitioning
// comparison on physical storage (Figures 5.14 and 5.15).
func BenchmarkFig5_14_PartitionBenefit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchmark.RunFig514([]string{"SCI_10K"}, 1, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5_17_OnlineMaintenance times the streaming online-maintenance
// and migration simulation (Figures 5.17 and 5.19).
func BenchmarkFig5_17_OnlineMaintenance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchmark.RunFig517("SCI_10K", 1, 1.5, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCh7_StorageRecreation times the Chapter 7 storage/recreation
// algorithm comparison over a collection of text dataset versions.
func BenchmarkCh7_StorageRecreation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchmark.RunCh7(25, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCh8_Lineage times lineage inference with and without signature
// pruning (Section 8.8).
func BenchmarkCh8_Lineage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := benchmark.RunCh8(20, 7); err != nil {
			b.Fatal(err)
		}
	}
}
