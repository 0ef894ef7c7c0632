// Package workload holds the durability tests that drive a durable engine
// with one deterministic commit history: the kill -9 campaigns and the
// checkpoint/restore round trips. It has no non-test code.
package workload

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cvd"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// The kill -9 campaign proves the durability claim the WAL makes: an
// acknowledged commit survives kill -9 at any instant. The test forks this
// test binary as a child committing a deterministic history into a durable
// data directory; the child prints "ACK <v>" after each commit returns (that
// is, after the WAL fsync). The parent SIGKILLs it at a random point, reopens
// the directory, and demands that every recovered version checks out
// bit-identical to a reference engine that replayed the same history.
// Iterations reuse the same data directory, so recovery also runs on top of
// previous recoveries and mid-write WAL tails.

var kill9Iterations = flag.Int("kill9.iterations", 3, "kill -9 cycles per crash campaign test")

const (
	crashCVD          = "crash"
	crashAuthor       = "crash-child"
	crashSeed         = 42
	crashMaxCommits   = 400 // per child: high enough that the kill lands first
	crashMinKillDelay = 10 * time.Millisecond
	crashMaxKillDelay = 250 * time.Millisecond
)

// crashCampaign is how one subtest's child checkpoints: after each commit,
// with probability checkpointPct percent, so kills also land mid-checkpoint.
type crashCampaign struct {
	name          string
	checkpointPct int
	// background checkpoints through CheckpointAsync: the WAL fence is
	// placed synchronously, but the encode/write half races the kill, and a
	// kill mid-encode must recover from the previous manifest plus the
	// sealed WAL segments.
	background bool
}

var (
	syncCampaign       = crashCampaign{name: "sync", checkpointPct: 10}
	backgroundCampaign = crashCampaign{name: "background", checkpointPct: 30, background: true}
	crashCampaigns     = []crashCampaign{syncCampaign, backgroundCampaign}
)

// TestMain doubles as the crash child: the campaign re-execs this test
// binary with ["crash-child", campaign, dataDir], which bypasses the test
// framework entirely.
func TestMain(m *testing.M) {
	if len(os.Args) == 4 && os.Args[1] == "crash-child" {
		os.Exit(crashChild(os.Args[2], os.Args[3], os.Stdout))
	}
	os.Exit(m.Run())
}

// TestRunCrashSmoke runs -kill9.iterations kill -9 cycles of the sync
// campaign, where the child checkpoints synchronously after 10% of commits,
// and verifies durability after each. Any acknowledged-commit loss or content
// divergence fails the test, and the failing data directory is kept under
// $TMPDIR/crash-failed-*.
func TestRunCrashSmoke(t *testing.T) {
	runKill9Campaign(t, syncCampaign)
}

// TestRunCrashBackgroundCheckpointSmoke is the background campaign: the child
// checkpoints through CheckpointAsync after 30% of commits, so some kills land
// with a checkpoint mid-flight and must recover from the previous manifest
// plus the sealed WAL segments.
func TestRunCrashBackgroundCheckpointSmoke(t *testing.T) {
	runKill9Campaign(t, backgroundCampaign)
}

func runKill9Campaign(t *testing.T, cc crashCampaign) {
	if testing.Short() {
		t.Skip("forks and kills child processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dataDir := filepath.Join(t.TempDir(), "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(crashSeed))
	var kills, cleanExits int
	var acked, verified, checkpoints int64
	for kills < *kill9Iterations {
		delay := crashMinKillDelay + time.Duration(rng.Int63n(int64(crashMaxKillDelay-crashMinKillDelay)))
		out, err := runCrashChild(exe, []string{"crash-child", cc.name, dataDir}, delay)
		if err != nil {
			t.Fatal(err)
		}
		acked += int64(out.acked)
		checkpoints += int64(out.checkpoints)
		n, err := verifyCrashDir(dataDir, out.acked)
		verified += int64(n)
		if err != nil {
			t.Fatalf("durability violated after iteration %d (killed=%v, acked=%d): %v; data directory kept at %s",
				kills+cleanExits+1, out.killed, out.acked, err, preserveDataDir(t, cc.name, dataDir))
		}
		if out.killed {
			kills++
			t.Logf("iteration %d/%d: killed after %v, acked=%d, verified %d versions",
				kills, *kill9Iterations, delay.Round(time.Millisecond), out.acked, n)
			continue
		}
		// The child finished its budget before the timer fired: restart from
		// an empty directory so later kills land mid-history again.
		cleanExits++
		t.Logf("clean exit (acked=%d, verified %d versions); resetting data directory", out.acked, n)
		if err := os.RemoveAll(dataDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d kills, %d clean exits: acked %d, verified %d versions (summed over iterations), %d checkpoints",
		kills, cleanExits, acked, verified, checkpoints)
	if acked == 0 {
		t.Error("no commits were acknowledged before the kills")
	}
	if verified < acked {
		t.Errorf("verified %d versions < %d acked", verified, acked)
	}
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

// verifyCrashDir reopens the data directory and checks the durability
// contract on it (see verifyRecovered). Returns the number of versions
// verified.
func verifyCrashDir(dataDir string, acked int) (int, error) {
	recovered, err := core.OpenDurable("crash-verify", dataDir)
	if err != nil {
		return 0, fmt.Errorf("reopening data dir: %w", err)
	}
	defer recovered.Close()
	return verifyRecovered(recovered, acked)
}

// verifyRecovered checks the durability contract on a recovered engine:
// every acknowledged version is present, and every recovered version checks
// out bit-identical to a reference engine that replayed the same
// deterministic history. Returns the number of versions verified.
func verifyRecovered(recovered *core.Engine, acked int) (int, error) {
	// With nothing acknowledged, an empty or partially initialized store is
	// acceptable, but if version 1 exists it must still verify below.
	var have int
	if c, err := recovered.CVD(crashCVD); err == nil {
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
	reference := core.Open("crash-reference")
	if err := replayCrashHistory(reference, crashSeed, have); err != nil {
		return 0, fmt.Errorf("building reference engine: %w", err)
	}
	cr, err := recovered.CVD(crashCVD)
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
		got, err := core.CheckoutVersionRows(recovered, crashCVD, vgraph.VersionID(v), "rec")
		if err != nil {
			return 0, fmt.Errorf("recovered engine: %w", err)
		}
		want, err := core.CheckoutVersionRows(reference, crashCVD, vgraph.VersionID(v), "ref")
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
	c, err := initCrashHistory(e, seed)
	if err != nil {
		return err
	}
	for v := 2; v <= n; v++ {
		if err := commitCrashVersion(c, seed, v); err != nil {
			return err
		}
	}
	return nil
}

// initCrashHistory commits version 1 of the deterministic history into a
// fresh engine and returns its CVD.
func initCrashHistory(e *core.Engine, seed int64) (*cvd.CVD, error) {
	if _, err := e.Init(crashCVD, crashSchema(), crashRows(seed, 1), cvd.Options{
		Author: crashAuthor, Message: "crash v1",
	}); err != nil {
		return nil, err
	}
	return e.CVD(crashCVD)
}

// commitCrashVersion commits version v of the deterministic history on top
// of version v-1.
func commitCrashVersion(c *cvd.CVD, seed int64, v int) error {
	_, err := c.Commit([]vgraph.VersionID{vgraph.VersionID(v - 1)}, crashRows(seed, v), crashSchema(),
		fmt.Sprintf("crash v%d", v), crashAuthor)
	return err
}

// crashChild is the child side: open the durable store, resume the
// deterministic history wherever the previous child left it, and print
// "ACK <v>" after each commit returns. It never exits between a commit
// returning and the ACK being written unbuffered to stdout.
func crashChild(campaign, dataDir string, stdout io.Writer) int {
	var cc crashCampaign
	for _, c := range crashCampaigns {
		if c.name == campaign {
			cc = c
		}
	}
	if cc.name == "" {
		fmt.Fprintf(os.Stderr, "crash child: unknown campaign %q\n", campaign)
		return 1
	}
	engine, err := core.OpenDurable("crash-child", dataDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crash child: open: %v\n", err)
		return 1
	}
	defer engine.Close()

	rng := rand.New(rand.NewSource(crashSeed + int64(os.Getpid())))
	next := 1
	c, err := engine.CVD(crashCVD)
	if err == nil {
		next = c.NumVersions() + 1
	} else {
		if c, err = initCrashHistory(engine, crashSeed); err != nil {
			fmt.Fprintf(os.Stderr, "crash child: init: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "ACK 1\n")
		next = 2
	}
	for v := next; v <= crashMaxCommits; v++ {
		if err := commitCrashVersion(c, crashSeed, v); err != nil {
			fmt.Fprintf(os.Stderr, "crash child: commit v%d: %v\n", v, err)
			return 1
		}
		fmt.Fprintf(stdout, "ACK %d\n", v)
		if rng.Intn(100) >= cc.checkpointPct {
			continue
		}
		if cc.background {
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
	return 0
}

// preserveDataDir moves a failing data directory out of the test's temporary
// directory, which is removed when the test ends, to $TMPDIR/crash-failed-*,
// and returns where it went (the original path if the move failed).
func preserveDataDir(t *testing.T, campaign, dataDir string) string {
	dst, err := os.MkdirTemp("", "crash-failed-"+campaign+"-*")
	if err != nil {
		t.Logf("preserving %s: %v", dataDir, err)
		return dataDir
	}
	if err := os.Rename(dataDir, filepath.Join(dst, "data")); err != nil {
		t.Logf("preserving %s: %v", dataDir, err)
		return dataDir
	}
	return filepath.Join(dst, "data")
}

// TestCrashDetectsLoss pins the campaign's teeth: verifying a data directory
// whose recovered history is shorter than the acknowledged high-water mark
// must fail with an acknowledged-commit-loss error.
func TestCrashDetectsLoss(t *testing.T) {
	dir := t.TempDir()
	engine, err := core.OpenDurable("loss", dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := replayCrashHistory(engine, crashSeed, 5); err != nil {
		t.Fatal(err)
	}
	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}
	// 5 versions on disk, but 7 were "acknowledged": must be flagged.
	if _, err := verifyCrashDir(dir, 7); err == nil {
		t.Fatal("verifyCrashDir accepted a history missing acknowledged commits")
	}
	// The honest count passes.
	verified, err := verifyCrashDir(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	if verified != 5 {
		t.Errorf("verified %d versions, want 5", verified)
	}
}

// TestCrashDetectsCorruption pins content verification: a recovered history
// whose row payloads differ from the deterministic expectation must fail
// bit-identity even when the version count matches.
func TestCrashDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	engine, err := core.OpenDurable("corrupt", dir)
	if err != nil {
		t.Fatal(err)
	}
	// Same shape, wrong payloads: replay with a different seed.
	if err := replayCrashHistory(engine, crashSeed+1, 4); err != nil {
		t.Fatal(err)
	}
	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := verifyCrashDir(dir, 4); err == nil {
		t.Fatal("verifyCrashDir accepted diverged content")
	}
}
