package durable

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/relstore"
	"repro/internal/vfs"
	"repro/internal/vgraph"
)

// withoutDelta returns r with no delta rows, for comparing the rest of two
// records with reflect.DeepEqual (a Value holds a pointer, so rows compare by
// Row.Identical).
func withoutDelta(r Record) Record {
	r.Delta = nil
	return r
}

// injectFaults swaps the store's WAL file for the fault-injecting wrapper
// promoted into internal/vfs (FaultFile): failing writes land a torn prefix,
// syncs are counted, and each armed failure is single-shot.
func injectFaults(s *Store) *vfs.FaultFile {
	s.mu.Lock()
	defer s.mu.Unlock()
	ff := vfs.NewFaultFile(s.wal)
	s.wal = ff
	return ff
}

// TestAppendFailureKeepsLaterCommits is the append-failure durability
// property: a failed append leaves torn bytes mid-log, and before the
// truncate-back fix the next append would write after the garbage — recovery
// then cut the torn frame AND every later acknowledged record. Now the failed
// append truncates back to the last durable record, so commits acknowledged
// after the failure are recovered bit-identical after reopen.
func TestAppendFailureKeepsLaterCommits(t *testing.T) {
	for _, mode := range []string{"write", "sync"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			s, _, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			ff := injectFaults(s)

			at := time.Unix(0, 42)
			if err := s.LogInit("cvd", []vgraph.VersionID{1}, walDelta(1, 3), walSchema(), "init", "alice", at); err != nil {
				t.Fatal(err)
			}
			if mode == "write" {
				ff.FailWrites(1)
			} else {
				ff.FailSyncs(1)
			}
			if err := s.LogCommit("cvd", []vgraph.VersionID{2, 1}, walDelta(4, 2), walSchema(), "lost", "bob", at.Add(time.Second)); err == nil {
				t.Fatal("append with injected fault succeeded")
			}

			// This commit is acknowledged AFTER the failed append: it must
			// survive recovery exactly as written.
			want := &Record{
				Op: OpCommit, CVD: "cvd", Versions: []vgraph.VersionID{8, 7},
				Delta: walDelta(40, 5, 3, 9), Schema: walSchema(),
				Message: "survivor", Author: "carol", At: time.Unix(0, 99),
			}
			if err := s.LogCommit(want.CVD, want.Versions, want.Delta, want.Schema, want.Message, want.Author, want.At); err != nil {
				t.Fatalf("append after recovered failure: %v", err)
			}
			s.Close()

			s2, res, recs := openCollect(t, dir)
			defer s2.Close()
			if res.TornTail {
				t.Fatal("reopen saw a torn tail: the failed append was not truncated back")
			}
			if len(recs) != 2 {
				t.Fatalf("recovered %d records, want 2 (init + survivor)", len(recs))
			}
			got := recs[1]
			if !slices.EqualFunc(got.Delta, want.Delta, relstore.Row.Identical) || !reflect.DeepEqual(withoutDelta(*got), withoutDelta(*want)) {
				t.Fatalf("survivor commit not bit-identical after reopen:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestAppendTruncateFailurePoisonsStore: when the failed append's truncate-back
// itself fails, the tail state is unknown — the store must poison itself (as
// Checkpoint does) so no later commit can claim durability, and reopening the
// directory must recover everything durable before the failure.
func TestAppendTruncateFailurePoisonsStore(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ff := injectFaults(s)
	at := time.Unix(0, 42)
	if err := s.LogInit("cvd", []vgraph.VersionID{1}, walDelta(1, 3), walSchema(), "init", "alice", at); err != nil {
		t.Fatal(err)
	}
	ff.FailWrites(1)
	ff.FailTruncs(1)
	if err := s.LogDrop("x"); err == nil {
		t.Fatal("append with injected fault succeeded")
	}
	// Poisoned: every later append must fail fast, even though the fault is gone.
	if err := s.LogDrop("y"); err == nil {
		t.Fatal("append on a poisoned store succeeded")
	}
	if _, err := s.Checkpoint(&Snapshot{DBName: "db"}); err == nil {
		t.Fatal("checkpoint on a poisoned store succeeded")
	}
	s.Close()

	// Reopen heals: the torn bytes are cut by recovery, the init survives.
	s2, res, recs := openCollect(t, dir)
	defer s2.Close()
	if !res.TornTail {
		t.Fatal("reopen did not report the torn tail left by the poisoned store")
	}
	if len(recs) != 1 || recs[0].Op != OpInit {
		t.Fatalf("recovered %d records, want the init only", len(recs))
	}
	if err := s2.LogDrop("after"); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

// TestGroupCommitBatchesFsyncs: with group commit enabled, a storm of
// concurrent appends must coalesce into far fewer fsyncs than records while
// every record still replays after reopen.
func TestGroupCommitBatchesFsyncs(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetGroupCommit(GroupCommitConfig{MaxBatch: 16, MaxDelay: 5 * time.Millisecond})
	ff := injectFaults(s)

	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.LogDrop(fmt.Sprintf("cvd%d", i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if got := ff.SyncCount(); got >= n {
		t.Fatalf("%d appends cost %d fsyncs; group commit did not batch", n, got)
	}
	s.Close()

	_, _, recs := openCollect(t, dir)
	if len(recs) != n {
		t.Fatalf("recovered %d records, want %d", len(recs), n)
	}
	seen := make(map[string]bool, n)
	for _, r := range recs {
		if r.Op != OpDrop {
			t.Fatalf("unexpected op %d", r.Op)
		}
		if seen[r.CVD] {
			t.Fatalf("record %q replayed twice", r.CVD)
		}
		seen[r.CVD] = true
	}
}

// TestGroupCommitDisabled pins the single-fsync baseline: MaxBatch 1 keeps
// the old one-append-one-fsync behaviour.
func TestGroupCommitDisabled(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetGroupCommit(GroupCommitConfig{MaxBatch: 1})
	ff := injectFaults(s)
	const n = 8
	for i := 0; i < n; i++ {
		if err := s.LogDrop(fmt.Sprintf("cvd%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := ff.SyncCount(); got != n {
		t.Fatalf("%d sequential unbatched appends cost %d fsyncs, want %d", n, got, n)
	}
}

// TestGroupCommitFailureFailsWholeBatch: a batch whose write fails must
// report the failure to every record in it, truncate back, and leave the
// store appendable; nothing from the failed batch may survive recovery.
func TestGroupCommitFailureFailsWholeBatch(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A long delay window so the concurrent appends below reliably share one
	// batch (and one failing write).
	s.SetGroupCommit(GroupCommitConfig{MaxBatch: 64, MaxDelay: 50 * time.Millisecond})
	ff := injectFaults(s)
	if err := s.LogDrop("before"); err != nil {
		t.Fatal(err)
	}
	// Arm more write failures than batches the 8 appends could possibly
	// split into: however the race shakes out, every batch's write fails.
	ff.FailWrites(8)
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.LogDrop(fmt.Sprintf("doomed%d", i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("append %d of the failing batch reported success", i)
		}
	}
	ff.FailWrites(0)
	if err := s.LogDrop("after"); err != nil {
		t.Fatalf("append after failed batch: %v", err)
	}
	s.Close()

	_, _, recs := openCollect(t, dir)
	if len(recs) != 2 || recs[0].CVD != "before" || recs[1].CVD != "after" {
		t.Fatalf("recovered %v, want exactly [before after]", recs)
	}
}
