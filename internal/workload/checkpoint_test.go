package workload

import "testing"

// TestRunCheckpointAndRestore pins the runner's checkpoint_every/restore_epoch
// wiring: background checkpoints fire during the run, and afterwards the data
// dir reopens at the newest retained epoch with the workload CVD intact.
func TestRunCheckpointAndRestore(t *testing.T) {
	spec := smallSpec(t, ModeInProcess)
	spec.Name = "t_ckpt_restore"
	spec.Ops = 120
	spec.Mix = Mix{Commit: 60, Checkout: 20, Select: 20, Merge: 0}
	spec.Engine = EngineSpec{Durable: true, CheckpointEvery: 10, RestoreEpoch: -1}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if report.TotalErrors != 0 {
		t.Errorf("%d operations failed: %+v", report.TotalErrors, report.Ops)
	}
	if report.Checkpoints < 1 {
		t.Errorf("checkpoints = %d, want >= 1 (checkpoint_every=10 over ~72 commits)", report.Checkpoints)
	}
	if report.CheckpointErrors != 0 {
		t.Errorf("checkpoint errors = %d", report.CheckpointErrors)
	}
	if !report.RestoreVerified {
		t.Error("restore_epoch -1 did not verify")
	}
	if report.RestoredEpoch < 1 {
		t.Errorf("restored epoch = %d, want >= 1", report.RestoredEpoch)
	}
}

// TestRunRestoreSpecificEpoch pins restore_epoch with an explicit epoch id.
// At most 60 commits with a checkpoint every 10 is at most 6 epochs, inside
// the default retention of 8, so epoch 1 is still there to restore; the mix
// makes at least one checkpoint certain.
func TestRunRestoreSpecificEpoch(t *testing.T) {
	spec := smallSpec(t, ModeInProcess)
	spec.Name = "t_ckpt_epoch1"
	spec.Ops = 60
	spec.Mix = Mix{Commit: 80, Checkout: 10, Select: 10, Merge: 0}
	spec.Engine = EngineSpec{Durable: true, CheckpointEvery: 10, RestoreEpoch: 1}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	report, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !report.RestoreVerified || report.RestoredEpoch != 1 {
		t.Errorf("restore: verified=%v epoch=%d, want verified epoch 1",
			report.RestoreVerified, report.RestoredEpoch)
	}
}
