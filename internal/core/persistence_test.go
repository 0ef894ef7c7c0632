package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cvd"
	"repro/internal/durable"
	"repro/internal/relstore"
	"repro/internal/vfs"
	"repro/internal/vgraph"
)

// checkoutRows materializes one version into rows (rid column included) and
// drops the staging table again. The comparator itself lives in compare.go
// (CheckoutVersionRows) so the crash-injection harness can reuse it.
func checkoutRows(t *testing.T, e *Engine, cvdName string, v vgraph.VersionID, tag string) []relstore.Row {
	t.Helper()
	rows, err := CheckoutVersionRows(e, cvdName, v, tag)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// enginesEquivalent verifies that every version of every CVD checks out
// identically on both engines and that metadata survived (EnginesEquivalent
// in compare.go, shared with the crash harness).
func enginesEquivalent(t *testing.T, tag string, a, b *Engine) {
	t.Helper()
	if err := EnginesEquivalent(tag, a, b); err != nil {
		t.Fatal(err)
	}
}

// partitionsOf returns the partition of each of versions (-1 each when the CVD
// is unpartitioned, nil when it is not split-by-rlist).
func partitionsOf(c *cvd.CVD, versions []vgraph.VersionID) []int {
	m, err := c.Rlist()
	if err != nil {
		return nil
	}
	out := make([]int, len(versions))
	for i, v := range versions {
		out[i] = m.PartitionOf(v)
	}
	return out
}

// randomValue produces a value for a column, sometimes NULL, sometimes of a
// surprising type (exercising the heterogeneous-column escape hatch).
func randomValue(rng *rand.Rand, typ relstore.ValueType) relstore.Value {
	if rng.Intn(6) == 0 {
		return relstore.Null()
	}
	switch typ {
	case relstore.TypeInt:
		return relstore.Int(rng.Int63n(1_000_000) - 500_000)
	case relstore.TypeFloat:
		return relstore.Float(rng.NormFloat64() * 100)
	case relstore.TypeBool:
		return relstore.Bool(rng.Intn(2) == 0)
	default:
		return relstore.Str(fmt.Sprintf("s%d", rng.Intn(10_000)))
	}
}

var colTypes = []relstore.ValueType{relstore.TypeInt, relstore.TypeFloat, relstore.TypeString, relstore.TypeBool}

// padRows strips the rid from checked-out rows and pads them to width.
func padRows(rows []relstore.Row, width int) []relstore.Row {
	for i, r := range rows {
		r = r[1:]
		for len(r) < width {
			r = append(r, relstore.Null())
		}
		rows[i] = r
	}
	return rows
}

// lockstep makes the same commit on the CVD name of every engine — the rows of
// its latest version and one fresh row — and fails unless each engine hands
// out the same version, checks it out bit-identically and places it in the
// same partition. The CVD's first column must be an integer key below 10⁶.
func lockstep(t *testing.T, name string, engines ...*Engine) {
	t.Helper()
	c, err := engines[0].CVD(name)
	if err != nil {
		t.Fatal(err)
	}
	latest, _ := c.LatestVersion()
	s := c.Schema()
	rows := padRows(checkoutRows(t, engines[0], name, latest, "base"), len(s.Columns))
	fresh := relstore.Row{relstore.Int(1_000_000)}
	for len(fresh) < len(s.Columns) {
		fresh = append(fresh, relstore.Null())
	}
	rows = append(rows, fresh)
	var want []relstore.Row
	var wantV vgraph.VersionID
	var wantPart []int
	for i, e := range engines {
		ec, err := e.CVD(name)
		if err != nil {
			t.Fatal(err)
		}
		v, err := ec.Commit([]vgraph.VersionID{latest}, rows, s, "lockstep", "prop")
		if err != nil {
			t.Fatalf("lockstep commit on engine %d: %v", i, err)
		}
		got, part := checkoutRows(t, e, name, v, "next"), partitionsOf(ec, []vgraph.VersionID{v})
		if i == 0 {
			want, wantV, wantPart = got, v, part
			continue
		}
		if v != wantV || !slices.Equal(part, wantPart) {
			t.Fatalf("lockstep commit is version %d in partitions %v on engine 0, %d in %v on engine %d", wantV, wantPart, v, part, i)
		}
		if err := RowsBitIdentical("lockstep", want, got); err != nil {
			t.Fatal(err)
		}
	}
}

// buildRandomCVD grows a split-by-rlist CVD through a random commit history:
// branching parents, row churn, and — crucially for the property — schema
// evolution mid-history (new columns, generalized types). mid, when not nil,
// runs once between two of its commits.
func buildRandomCVD(t *testing.T, rng *rand.Rand, e *Engine, name string, mid func()) {
	t.Helper()
	ncols := 2 + rng.Intn(3)
	cols := []relstore.Column{{Name: "k", Type: relstore.TypeInt}}
	for i := 1; i < ncols; i++ {
		cols = append(cols, relstore.Column{Name: fmt.Sprintf("c%d", i), Type: colTypes[rng.Intn(len(colTypes))]})
	}
	schema := relstore.MustSchema(cols, "k")
	nextKey := int64(1)
	makeRows := func(s relstore.Schema, n int) []relstore.Row {
		rows := make([]relstore.Row, n)
		for i := range rows {
			row := make(relstore.Row, len(s.Columns))
			row[0] = relstore.Int(nextKey)
			nextKey++
			for j := 1; j < len(s.Columns); j++ {
				row[j] = randomValue(rng, s.Columns[j].Type)
			}
			rows[i] = row
		}
		return rows
	}
	clock := time.Unix(1_700_000_000, 0)
	tick := func() time.Time {
		clock = clock.Add(time.Second)
		return clock
	}
	_, err := e.Init(name, schema, makeRows(schema, 5+rng.Intn(20)), cvd.Options{
		Author: "prop", Message: "v1", Clock: tick,
	})
	if err != nil {
		t.Fatalf("init %s: %v", name, err)
	}
	c, err := e.CVD(name)
	if err != nil {
		t.Fatal(err)
	}
	nversions := 3 + rng.Intn(6)
	midAt := -1
	if mid != nil {
		midAt = 1 + rng.Intn(nversions-1)
	}
	for i := 0; i < nversions; i++ {
		if i == midAt {
			mid()
		}
		versions := c.Versions()
		parent := versions[rng.Intn(len(versions))]
		rowSchema := schema
		if rng.Intn(3) == 0 {
			// Evolve: add a column and/or generalize an existing one.
			evolved := schema.Clone()
			if rng.Intn(2) == 0 {
				evolved.Columns = append(evolved.Columns, relstore.Column{
					Name: fmt.Sprintf("e%d_%d", i, rng.Intn(100)),
					Type: colTypes[rng.Intn(len(colTypes))],
				})
			} else if len(evolved.Columns) > 1 {
				evolved.Columns[1+rng.Intn(len(evolved.Columns)-1)].Type = relstore.TypeString
			}
			rowSchema = evolved
			schema = evolved
		}
		if _, err := c.Commit([]vgraph.VersionID{parent}, makeRows(rowSchema, 3+rng.Intn(15)), rowSchema, fmt.Sprintf("v%d", i+2), "prop"); err != nil {
			t.Fatalf("commit %s #%d: %v", name, i, err)
		}
	}
}

// TestSnapshotRoundTripProperty is the snapshot property test of the
// acceptance criteria: across randomized schemas, nulls, evolved columns and
// partitioned storage, a durable engine's directory — its newest checkpoint,
// taken in the background between two commits while commits continue, and the
// WAL after it — and a Save of the engine both reopen, loaded on one worker
// and on four, to an engine whose every version checks out bit-identically, in
// the same partition, and that stays in lockstep on the next commit.
func TestSnapshotRoundTripProperty(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			dir := t.TempDir()
			e, err := OpenDurable("prop", dir)
			if err != nil {
				t.Fatal(err)
			}
			var ckpts []<-chan error
			checkpoint := func() {
				done, err := e.CheckpointAsync()
				if err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
				ckpts = append(ckpts, done)
			}
			ncvds := 1 + rng.Intn(3)
			for i := 0; i < ncvds; i++ {
				buildRandomCVD(t, rng, e, fmt.Sprintf("cvd%d", i), checkpoint)
			}
			// Partition one CVD mid-history half the time, so partition maps and
			// resident sets go through the checkpoint Optimize takes and the
			// commits after it, each placed in its parent's partition, through
			// the WAL.
			optimize := func() {}
			if trial%2 == 0 {
				optimize = func() {
					if _, err := e.Optimize("parted", 2.0); err != nil {
						t.Fatalf("optimize: %v", err)
					}
				}
			}
			buildRandomCVD(t, rng, e, "parted", optimize)
			for _, done := range ckpts {
				if err := <-done; err != nil {
					t.Fatalf("background checkpoint: %v", err)
				}
			}
			saved := filepath.Join(t.TempDir(), "saved")
			if err := e.Save(saved); err != nil {
				t.Fatalf("save: %v", err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			// Each directory reopens loaded on one worker, is compared and
			// closed (the directory lock admits one engine at a time), then
			// reopens on four; that engine stays open, so the lockstep commit
			// goes through its journal.
			engines := []*Engine{e}
			for _, d := range []string{dir, saved} {
				open := func(workers int) *Engine {
					restored, err := OpenDurable("prop", d, WithWorkers(workers))
					if err != nil {
						t.Fatalf("open durable %s on %d workers: %v", d, workers, err)
					}
					enginesEquivalent(t, fmt.Sprintf("trial%d, %d workers", trial, workers), e, restored)
					return restored
				}
				if err := open(1).Close(); err != nil {
					t.Fatal(err)
				}
				restored := open(4)
				defer restored.Close()
				engines = append(engines, restored)
			}
			lockstep(t, "parted", engines...)
		})
	}
}

// TestSnapshotRoundTripPartitioned pins partitioned rlist storage round-trip:
// each version's partition and each partition's resident set must come back
// (EnginesEquivalent compares both), so checkouts are still charged exactly
// one partition. A version committed into its parent's partition and then
// moved to a new one online leaves its new records behind in the old
// partition, which holds them though none of its versions does.
func TestSnapshotRoundTripPartitioned(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	e := Open("parts")
	buildRandomCVD(t, rng, e, "d", nil)
	if _, err := e.Optimize("d", 1.5); err != nil {
		t.Fatal(err)
	}
	c, _ := e.CVD("d")
	m, err := c.Rlist()
	if err != nil {
		t.Fatal(err)
	}
	if !m.Partitioned() {
		t.Fatal("optimizer did not partition")
	}
	latest, _ := c.LatestVersion()
	rows := padRows(checkoutRows(t, e, "d", latest, "moved"), len(c.Schema().Columns))
	fresh := relstore.Row{relstore.Int(1_000_000)}
	for len(fresh) < len(c.Schema().Columns) {
		fresh = append(fresh, relstore.Null())
	}
	moved, err := c.Commit([]vgraph.VersionID{latest}, append(rows, fresh), c.Schema(), "moved", "t")
	if err != nil {
		t.Fatal(err)
	}
	from := m.PartitionOf(moved)
	if _, err := m.OnlineAssign(moved, -1, true); err != nil {
		t.Fatal(err)
	}
	if resident := m.ResidentSets(); !resident[from].Contains(int64(c.NumRecords())) {
		t.Fatalf("partition %d no longer holds record %d, which version %d left behind", from, c.NumRecords(), moved)
	}
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenDurable("parts", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	rc, _ := restored.CVD("d")
	rm, err := rc.Rlist()
	if err != nil {
		t.Fatal(err)
	}
	if !rm.Partitioned() {
		t.Fatal("partitioning lost in round trip")
	}
	for _, v := range c.Versions() {
		if got, want := rm.PartitionOf(v), m.PartitionOf(v); got != want {
			t.Fatalf("v%d assigned to partition %d after restore, want %d", v, got, want)
		}
	}
	enginesEquivalent(t, "parted", e, restored)
}

// TestOptimizeSurvivesReopen: the WAL journals commits, not partitionings, so
// Optimize on a durable engine returns only once a checkpoint holds its
// partitioning. A reopen with no explicit Checkpoint keeps every version's
// partition, and a commit made after Optimize replays from the WAL into its
// parent's partition.
func TestOptimizeSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable("parts", dir)
	if err != nil {
		t.Fatal(err)
	}
	buildRandomCVD(t, rand.New(rand.NewSource(99)), e, "d", nil)
	if _, err := e.Optimize("d", 1.5); err != nil {
		t.Fatal(err)
	}
	c, _ := e.CVD("d")
	latest, _ := c.LatestVersion()
	rows := padRows(checkoutRows(t, e, "d", latest, "after"), len(c.Schema().Columns))
	after, err := c.Commit([]vgraph.VersionID{latest}, rows[1:], c.Schema(), "after optimize", "t")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenDurable("parts", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	m, _ := c.Rlist()
	rc, _ := reopened.CVD("d")
	rm, err := rc.Rlist()
	if err != nil {
		t.Fatal(err)
	}
	if !rm.Partitioned() || !slices.Equal(rm.PartitionSizes(), m.PartitionSizes()) {
		t.Fatalf("reopened with partitions %v (partitioned: %v), live %v", rm.PartitionSizes(), rm.Partitioned(), m.PartitionSizes())
	}
	for _, v := range c.Versions() {
		if got, want := rm.PartitionOf(v), m.PartitionOf(v); got != want {
			t.Fatalf("v%d in partition %d after reopen, want %d", v, got, want)
		}
	}
	if k := rm.PartitionOf(after); k != rm.PartitionOf(latest) {
		t.Fatalf("the commit after Optimize replayed into partition %d, its parent is in %d", k, rm.PartitionOf(latest))
	}
	enginesEquivalent(t, "reopened", e, reopened)
}

// TestWALCrashRecovery is the crash-recovery property test of the acceptance
// criteria: the WAL is truncated mid-record at every byte offset inside its
// tail, and reopening must recover every fully-committed version — no more,
// no less — and stay writable.
func TestWALCrashRecovery(t *testing.T) {
	build := func(t *testing.T, dir string) (versions int) {
		e, err := OpenDurable("crash", dir)
		if err != nil {
			t.Fatal(err)
		}
		schema := relstore.MustSchema([]relstore.Column{
			{Name: "id", Type: relstore.TypeInt},
			{Name: "payload", Type: relstore.TypeString},
		}, "id")
		rows := []relstore.Row{
			{relstore.Int(1), relstore.Str("a")},
			{relstore.Int(2), relstore.Str("b")},
		}
		if _, err := e.Init("d", schema, rows, cvd.Options{Author: "crash", Message: "v1"}); err != nil {
			t.Fatal(err)
		}
		c, _ := e.CVD("d")
		for i := 0; i < 4; i++ {
			rows = append(rows, relstore.Row{relstore.Int(int64(10 + i)), relstore.Str(fmt.Sprintf("p%d", i))})
			if _, err := c.Commit([]vgraph.VersionID{vgraph.VersionID(i + 1)}, rows, schema, fmt.Sprintf("v%d", i+2), "crash"); err != nil {
				t.Fatal(err)
			}
		}
		n := c.NumVersions()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return n
	}

	master := t.TempDir()
	total := build(t, master)
	if total != 5 {
		t.Fatalf("built %d versions, want 5", total)
	}
	walRaw, err := os.ReadFile(filepath.Join(master, durable.WALSegmentFileName(0)))
	if err != nil {
		t.Fatal(err)
	}

	// Truncate inside the tail: from the full file back into the middle of
	// the WAL, at every byte offset of the last quarter plus a spread of
	// earlier offsets.
	cuts := map[int]struct{}{}
	for c := len(walRaw) - 1; c > len(walRaw)*3/4; c-- {
		cuts[c] = struct{}{}
	}
	for c := len(walRaw) * 3 / 4; c > 20; c -= 37 {
		cuts[c] = struct{}{}
	}
	for cut := range cuts {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, durable.WALSegmentFileName(0)), walRaw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := OpenDurable("crash", dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		names := e.List()
		if len(names) == 0 {
			// Cut inside the init record: nothing recovered, which is correct.
			e.Close()
			continue
		}
		c, err := e.CVD("d")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		got := c.NumVersions()
		if got < 1 || got > total {
			t.Fatalf("cut %d: recovered %d versions", cut, got)
		}
		// Every recovered version must check out completely: v_k has 2+(k-1)
		// rows by construction.
		for _, v := range c.Versions() {
			rows := checkoutRows(t, e, "d", v, fmt.Sprintf("cut%d", cut))
			if want := 2 + int(v) - 1; len(rows) != want {
				t.Fatalf("cut %d v%d: %d rows, want %d", cut, v, len(rows), want)
			}
		}
		// The recovered engine must accept new commits (the torn tail was
		// truncated to a clean append boundary).
		latest, _ := c.LatestVersion()
		tab := "recommit"
		if _, err := e.Checkout("d", []vgraph.VersionID{latest}, tab); err != nil {
			t.Fatalf("cut %d: checkout after recovery: %v", cut, err)
		}
		if _, err := e.Commit("d", tab, "after recovery", "crash"); err != nil {
			t.Fatalf("cut %d: commit after recovery: %v", cut, err)
		}
		after := c.NumVersions()
		e.Close()
		// And that commit must itself be durable.
		e2, err := OpenDurable("crash", dir)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		c2, err := e2.CVD("d")
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if c2.NumVersions() != after {
			t.Fatalf("cut %d: %d versions after reopen, want %d", cut, c2.NumVersions(), after)
		}
		e2.Close()
	}
}

// TestCheckpointFoldsWAL verifies the checkpoint lifecycle: the WAL segment
// grows with commits, Checkpoint seals it behind a manifest (the sealed
// segment is deleted once the manifest is durable), recovery works from the
// manifest plus the fresh segment, and post-checkpoint commits land in that
// fresh segment.
func TestCheckpointFoldsWAL(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable("ckpt", dir)
	if err != nil {
		t.Fatal(err)
	}
	schema := relstore.MustSchema([]relstore.Column{{Name: "id", Type: relstore.TypeInt}}, "id")
	if _, err := e.Init("d", schema, []relstore.Row{{relstore.Int(1)}}, cvd.Options{Message: "v1"}); err != nil {
		t.Fatal(err)
	}
	c, _ := e.CVD("d")
	if _, err := c.Commit([]vgraph.VersionID{1}, []relstore.Row{{relstore.Int(1)}, {relstore.Int(2)}}, schema, "v2", "t"); err != nil {
		t.Fatal(err)
	}
	grown, err := os.Stat(filepath.Join(dir, durable.WALSegmentFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, durable.WALSegmentFileName(0))); !os.IsNotExist(err) {
		t.Fatalf("checkpoint left the sealed WAL segment behind (err=%v)", err)
	}
	fresh, err := os.Stat(filepath.Join(dir, durable.WALSegmentFileName(1)))
	if err != nil {
		t.Fatalf("no fresh WAL segment after checkpoint: %v", err)
	}
	if fresh.Size() >= grown.Size() {
		t.Fatalf("fresh WAL segment not empty (%d bytes, sealed had %d)", fresh.Size(), grown.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, durable.ManifestFileName(1))); err != nil {
		t.Fatalf("no manifest after checkpoint: %v", err)
	}
	if stats, ok := e.LastCheckpoint(); !ok || stats.Epoch != 1 || stats.Chunks == 0 {
		t.Fatalf("LastCheckpoint = %+v, %v", stats, ok)
	}
	// Post-checkpoint commit lands in the fresh WAL.
	if _, err := c.Commit([]vgraph.VersionID{2}, []relstore.Row{{relstore.Int(1)}, {relstore.Int(2)}, {relstore.Int(3)}}, schema, "v3", "t"); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e2, err := OpenDurable("ckpt", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	c2, err := e2.CVD("d")
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumVersions() != 3 {
		t.Fatalf("recovered %d versions, want 3", c2.NumVersions())
	}
	rows := checkoutRows(t, e2, "d", 3, "ck")
	if len(rows) != 3 {
		t.Fatalf("v3 has %d rows after recovery, want 3", len(rows))
	}
}

// TestAdoptDurability pins the adopt contract on a durable engine: an
// adopted CVD (and commits to it) are invisible to recovery until a
// Checkpoint folds them in — crucially, a crash before that checkpoint must
// leave the data directory openable, not bricked by WAL records that replay
// against a CVD the snapshot does not contain.
func TestAdoptDurability(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable("adopt", dir)
	if err != nil {
		t.Fatal(err)
	}
	schema := relstore.MustSchema([]relstore.Column{{Name: "id", Type: relstore.TypeInt}}, "id")
	// A journaled CVD for contrast.
	if _, err := e.Init("native", schema, []relstore.Row{{relstore.Int(1)}}, cvd.Options{}); err != nil {
		t.Fatal(err)
	}
	// Build a CVD outside the engine and adopt it, then commit to it WITHOUT
	// checkpointing — simulating the crash-before-checkpoint window.
	adopted, err := cvd.Init(e.Database(), "adopted", schema, []relstore.Row{{relstore.Int(1)}}, cvd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Adopt(adopted); err != nil {
		t.Fatal(err)
	}
	if _, err := adopted.Commit([]vgraph.VersionID{1}, []relstore.Row{{relstore.Int(1)}, {relstore.Int(2)}}, schema, "pre-ckpt", "a"); err != nil {
		t.Fatal(err)
	}
	e.Close()

	// Reopen: the directory must open cleanly; the adopted CVD is simply not
	// there (its history was never durable), while the journaled one is.
	e2, err := OpenDurable("adopt", dir)
	if err != nil {
		t.Fatalf("reopen after adopt-without-checkpoint: %v", err)
	}
	if got := e2.List(); len(got) != 1 || got[0] != "native" {
		t.Fatalf("recovered CVDs %v, want [native]", got)
	}

	// Adopt again, checkpoint, then commit: now everything must be durable.
	adopted2, err := cvd.Init(e2.Database(), "adopted", schema, []relstore.Row{{relstore.Int(1)}}, cvd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Adopt(adopted2); err != nil {
		t.Fatal(err)
	}
	if err := e2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := adopted2.Commit([]vgraph.VersionID{1}, []relstore.Row{{relstore.Int(1)}, {relstore.Int(3)}}, schema, "post-ckpt", "a"); err != nil {
		t.Fatal(err)
	}
	e2.Close()
	e3, err := OpenDurable("adopt", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	c, err := e3.CVD("adopted")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumVersions() != 2 {
		t.Fatalf("adopted CVD recovered with %d versions, want 2", c.NumVersions())
	}
	m, ok := c.Meta(2)
	if !ok || m.Message != "post-ckpt" {
		t.Fatalf("post-checkpoint commit not recovered: %+v", m)
	}
}

// failingJournal implements cvd.Journal and rejects every append — the shape
// of a WAL whose disk went bad.
type failingJournal struct{}

func (failingJournal) LogCommit(string, []vgraph.VersionID, []relstore.Row, relstore.Schema, string, string, time.Time) error {
	return fmt.Errorf("injected journal failure")
}

// TestCommitTableJournalFailure pins Commit's partial-success contract at
// the CommitTable level: when the commit applies in memory but the WAL
// append fails, the staging table must be consumed — not restored — so a
// retry cannot create a duplicate version.
func TestCommitTableJournalFailure(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable("jfail", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	schema := relstore.MustSchema([]relstore.Column{{Name: "id", Type: relstore.TypeInt}}, "id")
	if _, err := e.Init("d", schema, []relstore.Row{{relstore.Int(1)}}, cvd.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkout("d", []vgraph.VersionID{1}, "stage"); err != nil {
		t.Fatal(err)
	}
	c, _ := e.CVD("d")
	// Swap in a journal whose appends fail.
	c.SetJournal(failingJournal{})
	v, err := e.Commit("d", "stage", "m", "a")
	if err == nil {
		t.Fatal("commit with a failing journal succeeded silently")
	}
	if v != 2 {
		t.Fatalf("partial-success version = %d, want 2", v)
	}
	if c.NumVersions() != 2 {
		t.Fatalf("NumVersions = %d, want 2 (commit applied in memory)", c.NumVersions())
	}
	if c.JournalErr() == nil {
		t.Fatal("journal not poisoned after the failed append")
	}
	// The staging table is consumed: a retry must fail the claim, not
	// duplicate the version.
	if _, err := e.Commit("d", "stage", "m", "a"); err == nil {
		t.Fatal("retry after journal failure re-committed the staging table")
	}
	if c.NumVersions() != 2 {
		t.Fatalf("NumVersions after retry = %d, want 2", c.NumVersions())
	}
	if e.Database().HasTable("stage") {
		t.Fatal("staging table survived the consumed commit")
	}
}

// TestCloseDetachesDurability pins the Close contract: after Close the
// engine is ephemeral — Durable reports false, DataDir is empty, journals
// are detached (later commits succeed un-journaled instead of tripping
// append failures against a closed WAL), and the data directory is unlocked
// and intact for the next OpenDurable.
func TestCloseDetachesDurability(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable("close", dir)
	if err != nil {
		t.Fatal(err)
	}
	schema := relstore.MustSchema([]relstore.Column{{Name: "id", Type: relstore.TypeInt}}, "id")
	if _, err := e.Init("d", schema, []relstore.Row{{relstore.Int(1)}}, cvd.Options{}); err != nil {
		t.Fatal(err)
	}
	c, _ := e.CVD("d")
	if _, err := c.Commit([]vgraph.VersionID{1}, []relstore.Row{{relstore.Int(2)}}, schema, "durable", "a"); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e.Durable() {
		t.Fatal("Durable() still true after Close")
	}
	if got := e.DataDir(); got != "" {
		t.Fatalf("DataDir() = %q after Close, want empty", got)
	}
	// The journal is detached: this commit is ephemeral and must succeed.
	if _, err := c.Commit([]vgraph.VersionID{2}, []relstore.Row{{relstore.Int(3)}}, schema, "ephemeral", "a"); err != nil {
		t.Fatalf("ephemeral commit after Close: %v", err)
	}
	// Close is idempotent.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// The directory reopens cleanly (flock released) with only the journaled
	// history — the post-Close commit was never logged.
	e2, err := OpenDurable("close", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	rc, err := e2.CVD("d")
	if err != nil {
		t.Fatal(err)
	}
	if rc.NumVersions() != 2 {
		t.Fatalf("recovered %d versions, want 2", rc.NumVersions())
	}
}

// TestDurableDropRecovery verifies drops are journaled and replayed.
func TestDurableDropRecovery(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable("drop", dir)
	if err != nil {
		t.Fatal(err)
	}
	schema := relstore.MustSchema([]relstore.Column{{Name: "id", Type: relstore.TypeInt}}, "id")
	for _, name := range []string{"keep", "toss"} {
		if _, err := e.Init(name, schema, []relstore.Row{{relstore.Int(1)}}, cvd.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drop("toss"); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e2, err := OpenDurable("drop", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := e2.List(); len(got) != 1 || got[0] != "keep" {
		t.Fatalf("recovered CVDs %v, want [keep]", got)
	}
}

// parkFS is the OS filesystem with its first file creation parked: parked is
// closed when it is reached, and it goes on once release is closed.
type parkFS struct {
	vfs.FS
	once            sync.Once
	parked, release chan struct{}
}

func (p *parkFS) park() {
	p.once.Do(func() {
		close(p.parked)
		<-p.release
	})
}

func (p *parkFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	if flag&os.O_CREATE != 0 {
		p.park()
	}
	return p.FS.OpenFile(name, flag, perm)
}

func (p *parkFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	p.park()
	return p.FS.CreateTemp(dir, pattern)
}

// TestSaveDoesNotBlockCommits: Save fences commits only while it captures the
// state. Parked at its first file creation, it lets a commit on the CVD
// complete, and what it writes is the state it captured.
func TestSaveDoesNotBlockCommits(t *testing.T) {
	fsys := &parkFS{FS: vfs.OS(), parked: make(chan struct{}), release: make(chan struct{})}
	e := Open("save", WithFS(fsys))
	c, err := e.Init("d", sweepSchema(), sweepRows(1, 3), cvd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "saved")
	saved := make(chan error, 1)
	go func() { saved <- e.Save(dir) }()
	<-fsys.parked
	committed := make(chan error, 1)
	go func() {
		_, err := c.Commit([]vgraph.VersionID{1}, sweepRows(1, 4), sweepSchema(), "during save", "t")
		committed <- err
	}()
	select {
	case err = <-committed:
		close(fsys.release)
	case <-time.After(10 * time.Second):
		t.Error("a commit waits for Save to write the state it captured")
		close(fsys.release)
		err = <-committed
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
	re, err := OpenDurable("re", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rc, err := re.CVD("d")
	if err != nil {
		t.Fatal(err)
	}
	if n := rc.NumVersions(); n != 1 {
		t.Fatalf("the saved CVD has %d versions, want the 1 Save captured", n)
	}
}
