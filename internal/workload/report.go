package workload

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// opKind enumerates the driver operations of the mix.
type opKind int

const (
	opCommit opKind = iota
	opCheckout
	opSelect
	opMerge
	numOps
)

func (o opKind) String() string {
	switch o {
	case opCommit:
		return "commit"
	case opCheckout:
		return "checkout"
	case opSelect:
		return "select"
	case opMerge:
		return "merge"
	}
	return fmt.Sprintf("op%d", int(o))
}

// OpStats is the per-operation section of a report: counts plus latency
// percentiles over every completed operation of that kind.
type OpStats struct {
	Op     string `json:"op"`
	Count  int64  `json:"count"`
	Errors int64  `json:"errors"`
	// Shed counts 503 admission-control rejections (http mode only): the
	// server degraded by shedding, which is load-test signal, not failure.
	Shed int64 `json:"shed,omitempty"`

	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// Report is the BENCH_<spec>.json document: the spec it ran (the JSON
// header round-trips back into a Spec), the seed dataset's shape, and the
// measured throughput and latency percentiles per operation kind.
type Report struct {
	Spec Spec `json:"spec"`

	// Seed dataset shape after loading (before any workload ops ran).
	SeedVersions int   `json:"seed_versions"`
	SeedRecords  int64 `json:"seed_records"`

	ElapsedMs   float64 `json:"elapsed_ms"`
	TotalOps    int64   `json:"total_ops"`
	TotalErrors int64   `json:"total_errors"`
	TotalShed   int64   `json:"total_shed,omitempty"`
	// TotalRetries counts requests the http driver re-sent after a 503 shed
	// or a transient connection error (bounded backoff+jitter); retried
	// requests that eventually succeed are not errors.
	TotalRetries     int64   `json:"total_retries,omitempty"`
	ThroughputPerSec float64 `json:"throughput_per_sec"`

	// Final engine shape after the run (commits and merges grow it).
	FinalVersions int   `json:"final_versions"`
	FinalRecords  int64 `json:"final_records"`

	// Background checkpoints the runner triggered (engine.checkpoint_every)
	// and how many of them failed.
	Checkpoints      int64 `json:"checkpoints,omitempty"`
	CheckpointErrors int64 `json:"checkpoint_errors,omitempty"`
	// Point-in-time restore verification (engine.restore_epoch): the epoch
	// that was reopened and whether its content checked out.
	RestoredEpoch   uint64 `json:"restored_epoch,omitempty"`
	RestoreVerified bool   `json:"restore_verified,omitempty"`

	Ops []OpStats `json:"ops"`
}

// JSON renders the report.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// latencyRecorder accumulates per-op-kind latencies for one client; clients
// each own one and the runner merges them, so recording takes no locks.
type latencyRecorder struct {
	samples [numOps][]time.Duration
	errors  [numOps]int64
	shed    [numOps]int64
}

func (l *latencyRecorder) record(op opKind, d time.Duration) {
	l.samples[op] = append(l.samples[op], d)
}

// mergeStats folds per-client recorders into the report's OpStats.
func mergeStats(recs []*latencyRecorder) []OpStats {
	out := make([]OpStats, 0, int(numOps))
	for op := opKind(0); op < numOps; op++ {
		var all []time.Duration
		var errs, shed int64
		for _, r := range recs {
			all = append(all, r.samples[op]...)
			errs += r.errors[op]
			shed += r.shed[op]
		}
		if len(all) == 0 && errs == 0 && shed == 0 {
			continue
		}
		st := OpStats{Op: op.String(), Count: int64(len(all)), Errors: errs, Shed: shed}
		if len(all) > 0 {
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			st.P50Ms = msf(percentile(all, 0.50))
			st.P90Ms = msf(percentile(all, 0.90))
			st.P99Ms = msf(percentile(all, 0.99))
			st.MaxMs = msf(all[len(all)-1])
		}
		out = append(out, st)
	}
	return out
}

// percentile reads the q-quantile from an ascending-sorted sample set
// (nearest-rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

func msf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
