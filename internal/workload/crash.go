package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cvd"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// The crash harness proves the durability claim the WAL makes: an
// acknowledged commit survives kill -9 at any instant. The parent process
// forks a child running CrashChild against a durable data dir; the child
// commits deterministic versions and prints "ACK <v>" after each commit
// returns (i.e. after the WAL fsync). The parent SIGKILLs it at a random
// point, reopens the data dir, and demands that every acknowledged version
// checks out bit-identical to a reference engine that replayed the same
// deterministic history — reusing the persistence round-trip comparators
// from internal/core. Iterations reuse the same data dir, so recovery also
// runs on top of previous recoveries and mid-write WAL tails.

// CrashCVD is the dataset name the crash child commits into.
const CrashCVD = "crash"

// crashAuthor tags the child's commits.
const crashAuthor = "crash-child"

// CrashConfig wires RunCrash to the re-exec'able binary hosting CrashChild.
type CrashConfig struct {
	// Exe is the binary to fork; defaults to os.Executable().
	Exe string
	// ArgsFor builds the child argv (without argv[0]) that routes the binary
	// into CrashChild with the given spec file and data dir. Required.
	ArgsFor func(specPath, dataDir string) []string
	// DataDir hosts the durable store under test; a temp dir when empty.
	DataDir string
	// KeepFailed leaves the data dir in place when verification fails, so CI
	// can upload it as an artifact. The report records the path.
	KeepFailed bool
	// Log receives progress lines; io.Discard when nil.
	Log io.Writer
}

// CrashReport summarizes a RunCrash campaign.
type CrashReport struct {
	Spec Spec `json:"spec"`

	// Kills counts kill -9 iterations (the spec's crash.iterations target).
	Kills int `json:"kills"`
	// CleanExits counts children that finished MaxCommits before the timer
	// fired; the data dir is reset afterwards so killing resumes from scratch.
	CleanExits int `json:"clean_exits"`
	// AckedCommits sums acknowledged commits across all children.
	AckedCommits int64 `json:"acked_commits"`
	// VerifiedVersions sums versions proven bit-identical across iterations.
	VerifiedVersions int64 `json:"verified_versions"`
	// Checkpoints counts child-side checkpoints (stale-WAL recovery coverage).
	Checkpoints int64   `json:"checkpoints"`
	ElapsedMs   float64 `json:"elapsed_ms"`

	// FailedDataDir is set when verification failed and KeepFailed preserved
	// the evidence.
	FailedDataDir string `json:"failed_data_dir,omitempty"`
}

// JSON renders the report.
func (r *CrashReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// RunCrash executes spec.Crash.Iterations kill -9 cycles and verifies
// durability after each. Any acknowledged-commit loss or content divergence
// is a hard error.
func RunCrash(spec *Spec, cfg CrashConfig) (*CrashReport, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.ArgsFor == nil {
		return nil, fmt.Errorf("workload: CrashConfig.ArgsFor is required")
	}
	logw := cfg.Log
	if logw == nil {
		logw = io.Discard
	}
	exe := cfg.Exe
	if exe == "" {
		var err error
		exe, err = os.Executable()
		if err != nil {
			return nil, err
		}
	}
	workRoot, err := os.MkdirTemp("", "crash-"+spec.Name+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workRoot)
	dataDir := cfg.DataDir
	if dataDir == "" {
		dataDir = filepath.Join(workRoot, "data")
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	specPath := filepath.Join(workRoot, "crash_spec.json")
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(specPath, specJSON, 0o644); err != nil {
		return nil, err
	}

	report := &CrashReport{Spec: *spec}
	rng := rand.New(rand.NewSource(spec.Seed))
	minD := spec.Crash.MinKillDelay.Std()
	maxD := spec.Crash.MaxKillDelay.Std()
	start := time.Now()
	for report.Kills < spec.Crash.Iterations {
		delay := minD
		if maxD > minD {
			delay += time.Duration(rng.Int63n(int64(maxD - minD)))
		}
		outcome, err := runCrashChild(exe, cfg.ArgsFor(specPath, dataDir), delay)
		if err != nil {
			return report, err
		}
		report.AckedCommits += int64(outcome.acked)
		report.Checkpoints += int64(outcome.checkpoints)
		verified, verr := verifyCrashDir(spec, dataDir, outcome.acked)
		report.VerifiedVersions += int64(verified)
		if verr != nil {
			if cfg.KeepFailed {
				report.FailedDataDir = preserveDataDir(dataDir)
			}
			return report, fmt.Errorf("workload: durability violated after iteration %d (killed=%v, acked=%d): %w",
				report.Kills+report.CleanExits+1, outcome.killed, outcome.acked, verr)
		}
		if outcome.killed {
			report.Kills++
			fmt.Fprintf(logw, "iteration %d/%d: killed after %v, acked=%d, verified %d versions\n",
				report.Kills, spec.Crash.Iterations, delay.Round(time.Millisecond), outcome.acked, verified)
		} else {
			// The child finished its budget before the timer fired: restart
			// from an empty dir so later kills land mid-history again.
			report.CleanExits++
			fmt.Fprintf(logw, "clean exit (acked=%d, verified %d versions); resetting data dir\n", outcome.acked, verified)
			if err := os.RemoveAll(dataDir); err != nil {
				return report, err
			}
			if err := os.MkdirAll(dataDir, 0o755); err != nil {
				return report, err
			}
		}
	}
	report.ElapsedMs = msf(time.Since(start))
	return report, nil
}

// childOutcome is what the parent learned from one child run.
type childOutcome struct {
	acked       int // highest acknowledged version
	checkpoints int
	killed      bool
}

// runCrashChild forks the child, harvests its ACK stream, and SIGKILLs it
// after delay (if it is still running).
func runCrashChild(exe string, args []string, delay time.Duration) (*childOutcome, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var acked, ckpts atomic.Int64
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			switch {
			case strings.HasPrefix(line, "ACK "):
				if v, err := strconv.Atoi(line[4:]); err == nil {
					acked.Store(int64(v))
				}
			case line == "CKPT":
				ckpts.Add(1)
			}
		}
	}()
	out := &childOutcome{}
	timer := time.NewTimer(delay)
	select {
	case <-scanDone:
		timer.Stop()
	case <-timer.C:
		cmd.Process.Kill()
		out.killed = true
		<-scanDone
	}
	werr := cmd.Wait()
	if !out.killed && werr != nil {
		return nil, fmt.Errorf("crash child failed: %w", werr)
	}
	out.acked = int(acked.Load())
	out.checkpoints = int(ckpts.Load())
	return out, nil
}

// verifyCrashDir reopens the data dir and checks the durability contract:
// every acknowledged version is present, and every recovered version checks
// out bit-identical to a reference engine that replayed the same
// deterministic history. Returns the number of versions verified.
func verifyCrashDir(spec *Spec, dataDir string, acked int) (int, error) {
	recovered, err := core.OpenDurable(spec.Name+"-verify", dataDir)
	if err != nil {
		return 0, fmt.Errorf("reopening data dir: %w", err)
	}
	defer recovered.Close()

	if acked == 0 {
		// Nothing was acknowledged; an empty or partially-initialized store is
		// acceptable, but if version 1 exists it must still verify below.
	}
	var have int
	if c, err := recovered.CVD(CrashCVD); err == nil {
		have = c.NumVersions()
	}
	if have < acked {
		return 0, fmt.Errorf("acknowledged commit lost: acked v%d but only %d versions recovered", acked, have)
	}
	if have == 0 {
		return 0, nil
	}
	// An unacknowledged trailing commit may legitimately have made it to disk
	// (the crash hit between fsync and ACK); it must still be self-consistent,
	// so the reference replays everything that was recovered, not just acked.
	reference := core.Open(spec.Name + "-reference")
	if err := replayCrashHistory(reference, spec.Seed, have); err != nil {
		return 0, fmt.Errorf("building reference engine: %w", err)
	}
	cr, err := recovered.CVD(CrashCVD)
	if err != nil {
		return 0, err
	}
	versions := cr.Versions()
	for i, v := range versions {
		want := vgraph.VersionID(i + 1)
		if v != want {
			return 0, fmt.Errorf("recovered version order %v: position %d holds v%d, want v%d", versions, i, v, want)
		}
	}
	for v := 1; v <= have; v++ {
		got, err := core.CheckoutVersionRows(recovered, CrashCVD, vgraph.VersionID(v), "rec")
		if err != nil {
			return 0, fmt.Errorf("recovered engine: %w", err)
		}
		want, err := core.CheckoutVersionRows(reference, CrashCVD, vgraph.VersionID(v), "ref")
		if err != nil {
			return 0, fmt.Errorf("reference engine: %w", err)
		}
		if err := core.RowsBitIdentical(fmt.Sprintf("crash v%d", v), got, want); err != nil {
			return 0, err
		}
	}
	return have, nil
}

// crashSchema is the deterministic dataset: an int primary key plus a
// payload column whose value is a pure function of (seed, key).
func crashSchema() relstore.Schema {
	return relstore.MustSchema([]relstore.Column{
		{Name: "key", Type: relstore.TypeInt},
		{Name: "payload", Type: relstore.TypeString},
	}, "key")
}

// crashRows returns the full content of version v: keys 1..v. Row k is
// identical in every version that contains it, so the record universe (and
// therefore rid assignment) is deterministic across replays.
func crashRows(seed int64, v int) []relstore.Row {
	rows := make([]relstore.Row, v)
	for k := 1; k <= v; k++ {
		rows[k-1] = relstore.Row{
			relstore.Int(int64(k)),
			relstore.Str(fmt.Sprintf("payload-%d-%d", seed, k)),
		}
	}
	return rows
}

// replayCrashHistory commits versions 1..n of the deterministic history
// into a fresh engine.
func replayCrashHistory(e *core.Engine, seed int64, n int) error {
	if n < 1 {
		return nil
	}
	if _, err := e.Init(CrashCVD, crashSchema(), crashRows(seed, 1), cvd.Options{
		Author: crashAuthor, Message: "crash v1",
	}); err != nil {
		return err
	}
	c, err := e.CVD(CrashCVD)
	if err != nil {
		return err
	}
	for v := 2; v <= n; v++ {
		if _, err := c.Commit([]vgraph.VersionID{vgraph.VersionID(v - 1)}, crashRows(seed, v), crashSchema(),
			fmt.Sprintf("crash v%d", v), crashAuthor); err != nil {
			return err
		}
	}
	return nil
}

// CrashChild is the child side: open the durable store, resume the
// deterministic history wherever the previous child left it, and print
// "ACK <v>" after each commit returns. It never exits between a commit
// returning and the ACK being written unbuffered to stdout.
//
// The caller (a -crash-child CLI mode or a test binary's re-exec hook) runs
// this and exits with the returned code.
func CrashChild(specPath, dataDir string, stdout io.Writer) int {
	data, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crash child: %v\n", err)
		return 1
	}
	spec, err := ParseSpec(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crash child: %v\n", err)
		return 1
	}
	engine, err := core.OpenDurable(spec.Name+"-child", dataDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crash child: open: %v\n", err)
		return 1
	}
	defer engine.Close()

	rng := rand.New(rand.NewSource(spec.Seed + int64(os.Getpid())))
	next := 1
	c, err := engine.CVD(CrashCVD)
	if err == nil {
		next = c.NumVersions() + 1
	} else {
		if _, ierr := engine.Init(CrashCVD, crashSchema(), crashRows(spec.Seed, 1), cvd.Options{
			Author: crashAuthor, Message: "crash v1",
		}); ierr != nil {
			fmt.Fprintf(os.Stderr, "crash child: init: %v\n", ierr)
			return 1
		}
		fmt.Fprintf(stdout, "ACK 1\n")
		c, err = engine.CVD(CrashCVD)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crash child: %v\n", err)
			return 1
		}
		next = 2
	}
	for v := next; v <= spec.Crash.MaxCommits; v++ {
		if _, err := c.Commit([]vgraph.VersionID{vgraph.VersionID(v - 1)}, crashRows(spec.Seed, v), crashSchema(),
			fmt.Sprintf("crash v%d", v), crashAuthor); err != nil {
			fmt.Fprintf(os.Stderr, "crash child: commit v%d: %v\n", v, err)
			return 1
		}
		fmt.Fprintf(stdout, "ACK %d\n", v)
		if spec.Crash.CheckpointPct > 0 && rng.Intn(100) < spec.Crash.CheckpointPct {
			if spec.Crash.CheckpointMode == CheckpointBackground {
				// Background mode: the WAL fence is placed synchronously (so
				// the commit fence is real), but the encode/write half races
				// the kill. A kill mid-encode must recover from the previous
				// manifest plus the sealed segments.
				done, err := engine.CheckpointAsync()
				if err != nil {
					fmt.Fprintf(os.Stderr, "crash child: checkpoint: %v\n", err)
					return 1
				}
				fmt.Fprintf(stdout, "CKPT\n")
				go func() {
					if err := <-done; err != nil {
						fmt.Fprintf(os.Stderr, "crash child: background checkpoint: %v\n", err)
					}
				}()
			} else {
				if err := engine.Checkpoint(); err != nil {
					fmt.Fprintf(os.Stderr, "crash child: checkpoint: %v\n", err)
					return 1
				}
				fmt.Fprintf(stdout, "CKPT\n")
			}
		}
	}
	return 0
}

// preserveDataDir moves a failing data dir out of the about-to-be-removed
// work root so it survives for artifact upload; falls back to the original
// path if the move fails.
func preserveDataDir(dataDir string) string {
	dst := filepath.Join(os.TempDir(), "crash-failed-"+filepath.Base(dataDir)+"-"+strconv.Itoa(os.Getpid()))
	if err := os.Rename(dataDir, dst); err != nil {
		return dataDir
	}
	return dst
}
