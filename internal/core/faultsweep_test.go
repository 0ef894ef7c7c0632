package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cvd"
	"repro/internal/durable"
	"repro/internal/relstore"
	"repro/internal/vfs"
	"repro/internal/vgraph"
)

// The fault-point sweep: a deterministic commit/checkpoint workload is run
// once against an unarmed vfs.FaultFS to count its durable I/O operations,
// then re-run once per operation index with a fault injected exactly there —
// ENOSPC, a short (torn) write, an fsync error, or a crash that drops every
// unsynced buffer. After each injected run the data directory is reopened on
// the real filesystem and every acknowledged commit must check out
// bit-identical to a reference engine. Before the reopen, every retained
// checkpoint of the image must load alike on one worker and on four
// (loadsAgreeAcrossWorkers), and fsck must agree with the open on the image
// and repair it (fsckAgreesWithOpen). Silent loss and panics are the two
// forbidden outcomes.
// The sweep covers three durability modes: fsync-per-commit, group commit,
// and background checkpoint.

const sweepCVD = "sweep"

func sweepSchema() relstore.Schema {
	return relstore.MustSchema([]relstore.Column{
		{Name: "key", Type: relstore.TypeInt},
		{Name: "payload", Type: relstore.TypeString},
	}, "key")
}

// sweepRows is the deterministic content of version v: keys 1..v with a
// payload that is a pure function of (seed, key).
func sweepRows(seed int64, v int) []relstore.Row {
	rows := make([]relstore.Row, v)
	for k := 1; k <= v; k++ {
		rows[k-1] = relstore.Row{
			relstore.Int(int64(k)),
			relstore.Str(fmt.Sprintf("sweep-%d-%d", seed, k)),
		}
	}
	return rows
}

const sweepVersions = 6

// runSweepWorkload drives the deterministic history against dir through fs
// and returns how many commits were acknowledged (Commit returned nil). A
// failed open or commit ends the workload early — exactly like a client that
// stops on the first error — but a failed checkpoint does not, because
// commits must survive a checkpoint that dies halfway.
func runSweepWorkload(mode, dir string, fs vfs.FS, seed int64) (acked int) {
	var opts []Option
	switch mode {
	case "fsync-per-commit":
		opts = []Option{GroupCommit(1, 0)}
	case "group-commit":
		opts = []Option{GroupCommit(8, 0)}
	case "background-checkpoint":
		// Store-default group commit; the checkpoint runs concurrently with
		// later commits.
	}
	opts = append(opts, WithFS(fs), WithWorkers(1))
	e, err := OpenDurable("sweep", dir, opts...)
	if err != nil {
		return 0
	}
	defer e.Close()
	if _, err := e.Init(sweepCVD, sweepSchema(), sweepRows(seed, 1), cvd.Options{
		Author: "sweep", Message: "sweep v1",
	}); err != nil {
		return 0
	}
	acked = 1
	c, err := e.CVD(sweepCVD)
	if err != nil {
		return acked
	}
	commit := func(v int) bool {
		_, err := c.Commit([]vgraph.VersionID{vgraph.VersionID(v - 1)}, sweepRows(seed, v),
			sweepSchema(), fmt.Sprintf("sweep v%d", v), "sweep")
		if err != nil {
			return false
		}
		acked = v
		return true
	}
	switch mode {
	case "background-checkpoint":
		for v := 2; v <= 3; v++ {
			if !commit(v) {
				return acked
			}
		}
		done, err := e.CheckpointAsync()
		for v := 4; v <= sweepVersions; v++ {
			if !commit(v) {
				break
			}
		}
		if err == nil {
			<-done
		}
	default:
		for v := 2; v <= 4; v++ {
			if !commit(v) {
				return acked
			}
		}
		_ = e.Checkpoint() // a dead checkpoint must not take commits with it
		for v := 5; v <= sweepVersions; v++ {
			if !commit(v) {
				return acked
			}
		}
	}
	return acked
}

// verifySweepDir holds fsck to the open on dir (fsckAgreesWithOpen), then
// reopens the repaired directory on the real filesystem and checks the
// no-silent-loss invariant: every acknowledged version (and any
// unacknowledged trailing commit that made it to disk) checks out
// bit-identical to a reference engine.
func verifySweepDir(dir string, seed int64, acked int) error {
	if err := loadsAgreeAcrossWorkers(dir); err != nil {
		return err
	}
	if err := fsckAgreesWithOpen(dir); err != nil {
		return err
	}
	recovered, err := OpenDurable("sweep-verify", dir)
	if err != nil {
		return fmt.Errorf("a directory fsck repaired does not open: %w", err)
	}
	defer recovered.Close()
	var have int
	if c, err := recovered.CVD(sweepCVD); err == nil {
		have = c.NumVersions()
	}
	if have < acked {
		return fmt.Errorf("silent loss: acked v%d but only %d versions recovered", acked, have)
	}
	if have == 0 {
		return nil
	}
	reference := Open("sweep-reference")
	if _, err := reference.Init(sweepCVD, sweepSchema(), sweepRows(seed, 1), cvd.Options{
		Author: "sweep", Message: "sweep v1",
	}); err != nil {
		return fmt.Errorf("building reference: %w", err)
	}
	rc, err := reference.CVD(sweepCVD)
	if err != nil {
		return err
	}
	for v := 2; v <= have; v++ {
		if _, err := rc.Commit([]vgraph.VersionID{vgraph.VersionID(v - 1)}, sweepRows(seed, v),
			sweepSchema(), fmt.Sprintf("sweep v%d", v), "sweep"); err != nil {
			return fmt.Errorf("building reference: %w", err)
		}
	}
	for v := 1; v <= have; v++ {
		got, err := CheckoutVersionRows(recovered, sweepCVD, vgraph.VersionID(v), "recovered")
		if err != nil {
			return fmt.Errorf("recovered engine, v%d: %w", v, err)
		}
		want, err := CheckoutVersionRows(reference, sweepCVD, vgraph.VersionID(v), "reference")
		if err != nil {
			return fmt.Errorf("reference engine, v%d: %w", v, err)
		}
		if err := RowsBitIdentical(fmt.Sprintf("sweep v%d", v), got, want); err != nil {
			return err
		}
	}
	return nil
}

// loadsAgreeAcrossWorkers restores every retained checkpoint of the image dir
// on one worker and on four: the parallel load must refuse with the error the
// one-goroutine load refuses with, or restore the same engine. A directory
// the crash never created is no image.
func loadsAgreeAcrossWorkers(dir string) error {
	epochs, err := durable.ListEpochs(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, epoch := range epochs {
		one, oneErr := OpenAtEpoch("one", dir, epoch, WithWorkers(1))
		four, fourErr := OpenAtEpoch("four", dir, epoch, WithWorkers(4))
		switch {
		case oneErr != nil || fourErr != nil:
			if fmt.Sprint(oneErr) != fmt.Sprint(fourErr) {
				return fmt.Errorf("epoch %d loads on one worker with %v, on four with %v", epoch, oneErr, fourErr)
			}
		default:
			if err := EnginesEquivalent(fmt.Sprintf("epoch %d on one worker and on four", epoch), one, four); err != nil {
				return err
			}
		}
	}
	return nil
}

// fsckAgreesWithOpen holds fsck to the open on one crash image: a plain scrub
// reports nothing but crash debris (a torn WAL or pack tail) exactly when the
// open recovers the image — tried on a copy, since the open repairs what it
// finds — and a repairing scrub then leaves nothing unrepaired. A clean image
// is left to the caller, whose open of it must succeed. A directory the crash
// never created is no image.
func fsckAgreesWithOpen(dir string) error {
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return nil
	}
	rep, err := durable.Scrub(dir, durable.ScrubOptions{})
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	if rep.Healthy() {
		return nil
	}
	probe := dir + "-probe"
	if err := copyDir(dir, probe); err != nil {
		return err
	}
	e, openErr := OpenDurable("fsck-probe", probe)
	if openErr == nil {
		e.Close()
	}
	if err := os.RemoveAll(probe); err != nil {
		return err
	}
	if onlyDebris(rep) != (openErr == nil) {
		return fmt.Errorf("fsck and the open disagree: fsck reports %+v, the open says %v", rep.Issues, openErr)
	}
	if rep, err = durable.Scrub(dir, durable.ScrubOptions{Repair: true}); err != nil {
		return fmt.Errorf("fsck -repair: %w", err)
	}
	if rep.Unrepaired() > 0 {
		return fmt.Errorf("fsck -repair leaves %+v", rep.Issues)
	}
	return nil
}

// onlyDebris reports that a scrub found nothing but crash debris.
func onlyDebris(rep *durable.ScrubReport) bool {
	for _, is := range rep.Issues {
		if is.Kind != durable.IssueTornWALTail && is.Kind != durable.IssueTornPackTail {
			return false
		}
	}
	return true
}

// copyDir copies the files of dir into a new directory to.
func copyDir(dir, to string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	if err := os.Mkdir(to, 0o755); err != nil {
		return err
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// sweepOnce runs the workload with a single fault armed at op index op and
// verifies the invariant. It reports whether the fault actually fired (runs
// short enough not to reach op count as zero injection points, not as
// failures). Panics anywhere in the run are converted into test failures
// that name the exact injection point.
func sweepOnce(t *testing.T, mode string, kind vfs.FaultKind, op int64, seed int64) (injected bool) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data")
	fs := vfs.NewFaultFS(vfs.OS(), seed)
	fs.FailAt(op, kind)
	var acked int
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("mode=%s kind=%s op=%d: workload panicked: %v", mode, kind, op, r)
			}
		}()
		acked = runSweepWorkload(mode, dir, fs, seed)
	}()
	if fs.Injected() == 0 {
		return false
	}
	if err := verifySweepDir(dir, seed, acked); err != nil {
		t.Errorf("mode=%s kind=%s op=%d acked=%d: %v", mode, kind, op, acked, err)
	}
	return true
}

// TestFaultPointSweep is the systematic sweep. It asserts the acceptance
// floor in-test: at least 200 distinct injection points across the three
// durability modes, with zero silent-loss or panic failures.
func TestFaultPointSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-point sweep is the long way around; skipped in -short")
	}
	modes := []string{"fsync-per-commit", "group-commit", "background-checkpoint"}
	kinds := []vfs.FaultKind{vfs.FaultENOSPC, vfs.FaultShortWrite, vfs.FaultSyncErr, vfs.FaultCrash}
	const seed = 42
	var totalPoints int
	for _, mode := range modes {
		// Golden run: count the workload's durable I/O operations with the
		// fault injector present but unarmed, and prove the workload itself
		// is sound.
		goldenDir := filepath.Join(t.TempDir(), "golden")
		goldenFS := vfs.NewFaultFS(vfs.OS(), seed)
		acked := runSweepWorkload(mode, goldenDir, goldenFS, seed)
		if acked != sweepVersions {
			t.Fatalf("mode=%s: golden run acked %d versions, want %d", mode, acked, sweepVersions)
		}
		if err := verifySweepDir(goldenDir, seed, acked); err != nil {
			t.Fatalf("mode=%s: golden run does not verify: %v", mode, err)
		}
		ops := goldenFS.Ops()
		if ops < 20 {
			t.Fatalf("mode=%s: golden run issued only %d durable I/O ops — sweep would be vacuous", mode, ops)
		}
		var points int
		for _, kind := range kinds {
			for op := int64(1); op <= ops; op++ {
				if sweepOnce(t, mode, kind, op, seed) {
					points++
				}
			}
		}
		t.Logf("mode=%s: %d ops in golden run, %d injection points fired", mode, ops, points)
		totalPoints += points
	}
	if totalPoints < 200 {
		t.Fatalf("sweep covered only %d injection points, want >= 200", totalPoints)
	}
}

// TestCheckpointAsyncENOSPC starves a background checkpoint of disk space
// mid-flight: the checkpoint must fail (or the store end up poisoned — also
// an error, never silence) while every acknowledged commit stays intact, and
// the directory must reopen cleanly once space returns.
func TestCheckpointAsyncENOSPC(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	const seed = 7
	fs := vfs.NewFaultFS(vfs.OS(), seed)
	e, err := OpenDurable("enospc", dir, WithFS(fs), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Init(sweepCVD, sweepSchema(), sweepRows(seed, 1), cvd.Options{
		Author: "sweep", Message: "sweep v1",
	}); err != nil {
		t.Fatal(err)
	}
	c, err := e.CVD(sweepCVD)
	if err != nil {
		t.Fatal(err)
	}
	acked := 1
	for v := 2; v <= 4; v++ {
		if _, err := c.Commit([]vgraph.VersionID{vgraph.VersionID(v - 1)}, sweepRows(seed, v),
			sweepSchema(), fmt.Sprintf("sweep v%d", v), "sweep"); err != nil {
			t.Fatalf("commit v%d: %v", v, err)
		}
		acked = v
	}
	// The disk fills mid-checkpoint: a handful of bytes is enough for the
	// checkpoint to start writing its pack, not enough to finish.
	fs.SetWriteBudget(64)
	done, err := e.CheckpointAsync()
	if err == nil {
		err = <-done
	}
	if err == nil {
		t.Fatal("checkpoint on a full disk reported success")
	}
	fs.SetWriteBudget(-1)
	// Poisoned-or-recoverable: a later commit may succeed (recovered) or fail
	// loudly (poisoned); silence is the only wrong answer — checked below by
	// reopening and demanding every acked commit back.
	if _, err := c.Commit([]vgraph.VersionID{vgraph.VersionID(acked)}, sweepRows(seed, acked+1),
		sweepSchema(), fmt.Sprintf("sweep v%d", acked+1), "sweep"); err == nil {
		acked++
	} else {
		t.Logf("post-ENOSPC commit refused (store poisoned): %v", err)
	}
	if err := e.Close(); err != nil {
		t.Logf("close after ENOSPC: %v", err)
	}
	if err := verifySweepDir(dir, seed, acked); err != nil {
		t.Fatalf("after ENOSPC checkpoint: %v", err)
	}
	// The directory must also still be openable for writing (no stuck temp
	// files or half-written manifests wedging recovery).
	e2, err := OpenDurable("enospc-reopen", dir)
	if err != nil {
		t.Fatalf("reopening after ENOSPC checkpoint: %v", err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	_ = os.RemoveAll(dir)
}
