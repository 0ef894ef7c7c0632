package workload

import (
	"slices"
	"testing"

	"repro/internal/core"
)

// TestRunCheckpointAndRestore pins checkpoints taken in the background while
// the deterministic history keeps committing: every background checkpoint
// completes, the newest retained epoch restores to exactly the versions at
// its fence, and a live reopen recovers the whole history, all bit-identical
// to a reference replay.
func TestRunCheckpointAndRestore(t *testing.T) {
	const commits, every = 72, 10
	dir := t.TempDir()
	engine, err := core.OpenDurable("ckpt", dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := initCrashHistory(engine, crashSeed)
	if err != nil {
		t.Fatal(err)
	}
	var pending []<-chan error
	fenced := 0
	for v := 2; v <= commits; v++ {
		if err := commitCrashVersion(c, crashSeed, v); err != nil {
			t.Fatal(err)
		}
		if v%every != 0 {
			continue
		}
		done, err := engine.CheckpointAsync()
		if err != nil {
			t.Fatal(err)
		}
		// Nothing else commits, so the fence holds exactly the versions so far.
		fenced = c.NumVersions()
		pending = append(pending, done)
	}
	for i, done := range pending {
		if err := <-done; err != nil {
			t.Fatalf("background checkpoint %d: %v", i+1, err)
		}
	}
	epochs, err := engine.RetainedEpochs()
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}
	if len(pending) != commits/every || len(epochs) == 0 {
		t.Fatalf("%d checkpoints taken, %d epochs retained; want %d taken and at least one retained",
			len(pending), len(epochs), commits/every)
	}

	restored, err := core.OpenAtEpoch("ckpt-restore", dir, epochs[len(epochs)-1])
	if err != nil {
		t.Fatal(err)
	}
	n, err := verifyRecovered(restored, fenced)
	if err != nil {
		t.Fatalf("newest epoch %d: %v", epochs[len(epochs)-1], err)
	}
	if n != fenced {
		t.Errorf("newest epoch restored %d versions, want the %d at its fence", n, fenced)
	}
	if n, err := verifyCrashDir(dir, commits); err != nil || n != commits {
		t.Errorf("live reopen verified %d versions (err %v), want %d", n, err, commits)
	}
}

// TestRunRestoreSpecificEpoch pins restoring an explicit epoch id: 60 commits
// with a checkpoint every 10 leave 6 epochs, inside the default retention of
// 8, so epoch 1 still restores, to exactly the first 10 versions.
func TestRunRestoreSpecificEpoch(t *testing.T) {
	const commits, every = 60, 10
	dir := t.TempDir()
	engine, err := core.OpenDurable("epoch", dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := initCrashHistory(engine, crashSeed)
	if err != nil {
		t.Fatal(err)
	}
	for v := 2; v <= commits; v++ {
		if err := commitCrashVersion(c, crashSeed, v); err != nil {
			t.Fatal(err)
		}
		if v%every == 0 {
			if err := engine.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	epochs, err := engine.RetainedEpochs()
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}
	if len(epochs) != commits/every || !slices.Contains(epochs, 1) {
		t.Fatalf("retained epochs %v, want %d including epoch 1", epochs, commits/every)
	}

	restored, err := core.OpenAtEpoch("epoch-restore", dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := verifyRecovered(restored, every)
	if err != nil {
		t.Fatalf("epoch 1: %v", err)
	}
	if n != every {
		t.Errorf("epoch 1 restored %d versions, want %d", n, every)
	}
}
