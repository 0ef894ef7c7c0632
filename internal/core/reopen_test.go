package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/benchmark"
	"repro/internal/cvd"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// reopenTail is how many commits the reopen tests leave in the WAL after the
// checkpoint, and tailRows how many fresh records each adds.
const (
	reopenTail = 5
	tailRows   = 100
)

// tailCommitter commits tailRows fresh records on top of the newest version
// of a CVD, remembering that version's rows between commits.
type tailCommitter struct {
	rng    *rand.Rand
	schema relstore.Schema
	rows   []relstore.Row
	head   vgraph.VersionID
	key    int64
}

// commit adds the next tailRows records to the newest version of the CVD
// named "d" on e.
func (tc *tailCommitter) commit(t *testing.T, e *Engine) {
	t.Helper()
	c, err := e.CVD("d")
	if err != nil {
		t.Fatal(err)
	}
	rows := slices.Clip(tc.rows)
	for i := 0; i < tailRows; i++ {
		row := make(relstore.Row, len(tc.schema.Columns))
		row[0] = relstore.Int(tc.key)
		tc.key++
		for ci := 1; ci < len(row); ci++ {
			row[ci] = relstore.Int(tc.rng.Int63n(1_000_000))
		}
		rows = append(rows, row)
	}
	v, err := c.Commit([]vgraph.VersionID{tc.head}, rows, tc.schema, "tail", "reopen")
	if err != nil {
		t.Fatal(err)
	}
	tc.rows, tc.head = rows, v
}

// drop commits the newest version less its last record: a commit that adds
// nothing to the record catalog.
func (tc *tailCommitter) drop(t *testing.T, e *Engine) {
	t.Helper()
	c, err := e.CVD("d")
	if err != nil {
		t.Fatal(err)
	}
	rows := slices.Clip(tc.rows[:len(tc.rows)-1])
	v, err := c.Commit([]vgraph.VersionID{tc.head}, rows, tc.schema, "drop", "reopen")
	if err != nil {
		t.Fatal(err)
	}
	tc.rows, tc.head = rows, v
}

// sciDirWithTail writes a durable directory holding SCI_10K as the CVD "d",
// checkpointed, then reopenTail commits of tailRows records each in its WAL.
// It returns the directory, the checkpoint's epoch and the committer, which
// continues the history.
func sciDirWithTail(t *testing.T) (string, uint64, *tailCommitter) {
	t.Helper()
	cfg, err := benchmark.Preset("SCI_10K", 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := benchmark.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	e, err := OpenDurable("reopen", dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := benchmark.LoadCVD(e.Database(), "d", w, cvd.SplitByRlist)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Adopt(c); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	epochs, err := e.RetainedEpochs()
	if err != nil {
		t.Fatal(err)
	}
	head := c.Versions()[len(c.Versions())-1]
	tc := &tailCommitter{rng: rand.New(rand.NewSource(7)), schema: w.Schema, rows: w.Rows(head), head: head, key: 1 << 40}
	for i := 0; i < reopenTail; i++ {
		tc.commit(t, e)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, epochs[len(epochs)-1], tc
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// reopenBytesBound is what reopening the SCI_10K directory of
// TestReopenAllocations may allocate: 0.75 times the 15 566 928 bytes the
// open allocated when each lane grew band after band and the first replayed
// commit copied every column of the data table.
const reopenBytesBound = 15_566_928 * 3 / 4

// TestReopenAllocations gates the bytes a reopen allocates, and that a
// reopened table takes its next commit in place: the first 100-record commit
// after the open — with the WAL tail replayed, and on a point-in-time restore
// of the checkpoint, where no commit has run yet — allocates at most 1.2
// times the second, which it would not if it copied every column. The first
// commit of any kind after an open also builds the CVD's record index, which
// is never persisted; a commit that only drops a record pays for that before
// the two are measured. It counts bytes, which the race detector inflates, so
// it skips under -race; CI runs it in the memory-gate step.
func TestReopenAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("counts allocated bytes; the memory gates run without the race detector")
	}
	dir, epoch, tc := sciDirWithTail(t)
	restored, err := OpenAtEpoch("restored", dir, epoch)
	if err != nil {
		t.Fatal(err)
	}
	c, err := restored.CVD("d")
	if err != nil {
		t.Fatal(err)
	}
	head := c.Versions()[len(c.Versions())-1]
	restoredTail := &tailCommitter{rng: rand.New(rand.NewSource(8)), schema: tc.schema, rows: checkoutRecords(t, restored, head), head: head, key: tc.key}
	var e *Engine
	opened := allocated(func() { e, err = OpenDurable("reopen", dir) })
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	t.Logf("the open allocated %d bytes (bound %d)", opened, reopenBytesBound)
	if opened > reopenBytesBound {
		t.Errorf("the open allocated %d bytes, want <= %d", opened, reopenBytesBound)
	}
	for name, run := range map[string]struct {
		e  *Engine
		tc *tailCommitter
	}{"reopened": {e, tc}, "restored": {restored, restoredTail}} {
		run.tc.drop(t, run.e)
		first := allocated(func() { run.tc.commit(t, run.e) })
		second := allocated(func() { run.tc.commit(t, run.e) })
		t.Logf("%s: the first commit allocated %d bytes, the second %d", name, first, second)
		if float64(first) > 1.2*float64(second) {
			t.Errorf("%s: the first commit after the open allocated %d bytes, more than 1.2 times the second's %d: it copied the table", name, first, second)
		}
	}
}

// checkoutRecords returns version v of the CVD "d" as the rows a commit
// takes: the data columns, without the rid.
func checkoutRecords(t *testing.T, e *Engine, v vgraph.VersionID) []relstore.Row {
	t.Helper()
	rows := checkoutRows(t, e, "d", v, "records")
	for i, row := range rows {
		rows[i] = row[1:]
	}
	return rows
}

// TestRecoveryInfoReportsTheSplit: the open reports how many WAL records it
// replayed and how many goroutines loaded the checkpoint — the engine's
// worker count, or none without a checkpoint. The times are reported too,
// and not asserted.
func TestRecoveryInfoReportsTheSplit(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable("split", dir)
	if err != nil {
		t.Fatal(err)
	}
	schema := sweepSchema()
	if _, err := e.Init("d", schema, sweepRows(1, 3), cvd.Options{}); err != nil {
		t.Fatal(err)
	}
	c, err := e.CVD("d")
	if err != nil {
		t.Fatal(err)
	}
	commit := func(v int) {
		if _, err := c.Commit([]vgraph.VersionID{vgraph.VersionID(v - 1)}, sweepRows(1, v+2), schema, "m", "a"); err != nil {
			t.Fatal(err)
		}
	}
	commit(2)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	reopen := func(workers int) RecoveryInfo {
		t.Helper()
		e, err := OpenDurable("split", dir, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		return e.Recovery()
	}
	if got := reopen(4); got.Replayed != 2 || got.Workers != 0 {
		t.Fatalf("no checkpoint, init and one commit in the WAL: %+v, want 2 records replayed and no load", got)
	}
	e, err = OpenDurable("split", dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if c, err = e.CVD("d"); err != nil {
		t.Fatal(err)
	}
	for v := 3; v <= 5; v++ {
		commit(v)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		if got := reopen(workers); got.Replayed != 3 || got.Workers != workers {
			t.Fatalf("WithWorkers(%d), three commits after the checkpoint: %+v, want 3 records replayed on %d workers", workers, got, workers)
		}
	}
}

// TestRestoresDuringCompaction runs point-in-time restores — the store's
// LoadEpoch and the engine's ExportEpoch — on two goroutines while background
// checkpoints prune manifests and compact the pack under them. A load may
// fail only for an epoch the retention dropped meanwhile, and one that
// succeeds holds the checkpoint's CVD. CI runs it 20 times under -race.
func TestRestoresDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable("compact", dir, WithCheckpointRetention(2), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Rows of 4 KiB make bands of 256 rows, and the table lives in its tail
	// band: every checkpoint rewrites about a megabyte and kills the one
	// before, so the pack's dead bytes pass the compaction threshold within a
	// few checkpoints.
	schema := relstore.MustSchema([]relstore.Column{
		{Name: "key", Type: relstore.TypeInt},
		{Name: "blob", Type: relstore.TypeString},
	}, "key")
	row := func(k int) relstore.Row {
		return relstore.Row{relstore.Int(int64(k)), relstore.Str(fmt.Sprintf("%08d", k) + strings.Repeat("x", 4088))}
	}
	var rows []relstore.Row
	for k := 0; k < 200; k++ {
		rows = append(rows, row(k))
	}
	c, err := e.Init("d", schema, rows, cvd.Options{})
	if err != nil {
		t.Fatal(err)
	}

	retained := func(epoch uint64) bool {
		epochs, err := e.RetainedEpochs()
		return err == nil && slices.Contains(epochs, epoch)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var loadsMu sync.Mutex
	loads := 0
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				epochs, err := e.RetainedEpochs()
				if err != nil || len(epochs) == 0 {
					continue
				}
				epoch := epochs[n%len(epochs)]
				snap, err := e.getStore().LoadEpoch(epoch)
				if err == nil && (len(snap.CVDs) != 1 || len(snap.Tables) == 0) {
					err = fmt.Errorf("loaded %d CVDs over %d tables", len(snap.CVDs), len(snap.Tables))
				}
				if err == nil {
					err = e.ExportEpoch(epoch, filepath.Join(t.TempDir(), "export"))
				}
				if err != nil && retained(epoch) {
					t.Errorf("restoring retained epoch %d: %v", epoch, err)
					return
				}
				if err == nil {
					loadsMu.Lock()
					loads++
					loadsMu.Unlock()
				}
			}
		}()
	}

	pack := filepath.Join(dir, "chunks.orph")
	compactions := 0
	last := int64(0)
	for v := 2; v <= 40 && compactions < 2; v++ {
		for k := 0; k < 5; k++ {
			rows = append(rows, row(len(rows)))
		}
		if _, err := c.Commit([]vgraph.VersionID{vgraph.VersionID(v - 1)}, rows, schema, "grow", "compact"); err != nil {
			t.Fatal(err)
		}
		done, err := e.CheckpointAsync()
		if err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(pack)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() < last {
			compactions++
		}
		last = info.Size()
	}
	close(stop)
	wg.Wait()
	if compactions == 0 {
		t.Fatal("no checkpoint compacted the pack")
	}
	t.Logf("%d compactions, %d restores", compactions, loads)
}
