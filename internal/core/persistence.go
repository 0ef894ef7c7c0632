package core

import (
	"fmt"
	"sort"

	"repro/internal/cvd"
	"repro/internal/durable"
)

// This file binds the engine to the durable storage subsystem (package
// durable): opening a data directory (snapshot load + WAL replay), journaling
// live operations, exporting snapshots, and checkpointing.

// OpenDurable opens an engine bound to a data directory. If the directory
// holds a snapshot it is loaded (tables rebuilt straight from their columnar
// lanes), and the commit WAL is replayed on top of it — every fully-committed
// record is applied, a torn tail from a crashed append is truncated away, and
// a WAL made stale by a crashed checkpoint is discarded. Afterwards every
// Init / Commit / Drop through the engine (or directly on a managed CVD) is
// appended to the WAL and fsynced before it returns.
func OpenDurable(name, dir string, opts ...Option) (*Engine, error) {
	e := Open(name, opts...)
	store, res, err := durable.OpenFS(dir, e.fsys)
	if err != nil {
		return nil, err
	}
	if e.gcSet {
		store.SetGroupCommit(e.gc)
	}
	store.SetWorkers(e.workers)
	if e.retain > 0 {
		store.SetRetention(e.retain)
	}
	e.recovery = RecoveryInfo{TornTail: res.TornTail, StaleWAL: res.StaleWAL}
	rec := durable.NewRecovery(e.db, e.workers)
	if res.Snapshot != nil {
		if err := rec.Restore(res.Snapshot); err != nil {
			store.Close()
			return nil, err
		}
	}
	// Stream the WAL through the recovery one record at a time (a large log
	// is never materialized whole).
	if _, err := store.ReplayWAL(rec.Apply); err != nil {
		store.Close()
		return nil, err
	}
	// Attach the journal only after replay so replayed operations are not
	// logged a second time.
	e.db, e.cvds, e.store = rec.DB, rec.CVDs, store
	for _, c := range e.cvds {
		c.SetJournal(store)
		c.InheritWorkers(e.workers)
	}
	return e, nil
}

// OpenAtEpoch materializes the engine state captured by a retained checkpoint
// manifest of dir as an ephemeral engine: no lock is held on the directory
// afterwards, nothing is journaled, and the live engine (if any) is
// unaffected. Use Engine.RetainedEpochs (or durable.ListEpochs) to discover
// which epochs are restorable.
func OpenAtEpoch(name, dir string, epoch uint64, opts ...Option) (*Engine, error) {
	snap, err := durable.OpenAtEpoch(dir, epoch)
	if err != nil {
		return nil, err
	}
	e := Open(name, opts...)
	rec := durable.NewRecovery(e.db, e.workers)
	if err := rec.Restore(snap); err != nil {
		return nil, err
	}
	e.db, e.cvds = rec.DB, rec.CVDs
	for _, c := range e.cvds {
		c.InheritWorkers(e.workers)
	}
	return e, nil
}

// Durable reports whether the engine is bound to a data directory. It
// reports false after Close: the binding is gone and commits are no longer
// journaled.
func (e *Engine) Durable() bool { return e.getStore() != nil }

// DataDir returns the bound data directory ("" for ephemeral and closed
// engines).
func (e *Engine) DataDir() string {
	store := e.getStore()
	if store == nil {
		return ""
	}
	return store.Dir()
}

// getStore reads the durable binding under the registry lock (Close clears
// it concurrently).
func (e *Engine) getStore() *durable.Store {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.store
}

// buildSnapshot captures the full engine snapshot under a brief fence: the
// registry shared lock plus every CVD's mutex, taken in name order. The
// capture is frozen — cloned table headers over shared immutable column lanes
// (Table.SnapshotClone) and CVD states whose mutable containers are copied
// (ExportState) — so it stays consistent after release while commits go on,
// and callers serialize it after releasing. The returned release function
// lifts the fence; callers that need to act while the engine is still fenced
// (Checkpoint sealing the WAL segment) do so before calling it. A CVD of an
// in-memory model fails the snapshot (cvd.CheckDurable).
func (e *Engine) buildSnapshot() (*durable.Snapshot, []*cvd.CVD, func(), error) {
	e.mu.RLock()
	names := make([]string, 0, len(e.cvds))
	for n := range e.cvds {
		// A CVD with a drop in flight is excluded: its OpDrop may already be
		// in the WAL (which a checkpoint is about to truncate), and its
		// teardown may race the serialization. Skipping it makes the
		// snapshot agree with the drop's outcome — the replayed OpDrop, if
		// it survives in the new WAL, degrades to a tolerated no-op.
		if _, busy := e.dropping[n]; busy {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	locked := make([]*cvd.CVD, 0, len(names))
	for _, n := range names {
		c := e.cvds[n]
		c.LockExclusive()
		locked = append(locked, c)
	}
	release := func() {
		for i := len(locked) - 1; i >= 0; i-- {
			locked[i].UnlockExclusive()
		}
		e.mu.RUnlock()
	}
	snap := &durable.Snapshot{DBName: e.db.Name()}
	for _, c := range locked {
		st, err := c.ExportState()
		if err != nil {
			release()
			return nil, nil, nil, err
		}
		snap.CVDs = append(snap.CVDs, st)
		for _, name := range st.Tables {
			t, ok := e.db.Table(name)
			if !ok {
				// Writing a snapshot that names a table it does not contain
				// would fail only at restore time — after a checkpoint has
				// already truncated the WAL. Fail loudly now instead.
				release()
				return nil, nil, nil, fmt.Errorf("core: snapshot of CVD %q: backing table %q missing from database", c.Name(), name)
			}
			snap.Tables = append(snap.Tables, t.SnapshotClone())
		}
	}
	return snap, locked, release, nil
}

// Save exports the whole engine into dir (created if needed) as a data
// directory holding one checkpoint: every CVD's versions, partition maps, and
// metadata, serialized from the columnar storage. Commits are fenced only
// while the state is captured, not while it is written. The directory can
// later be opened with OpenDurable. A directory that already holds checkpoint
// or WAL state is refused — use Checkpoint for the engine's own.
func (e *Engine) Save(dir string) error {
	snap, _, release, err := e.buildSnapshot()
	if err != nil {
		return err
	}
	release()
	return durable.Export(dir, e.fsys, snap)
}

// RetainedEpochs returns the checkpoint epochs the bound data directory still
// retains manifests for, ascending. It requires a durable engine.
func (e *Engine) RetainedEpochs() ([]uint64, error) {
	store := e.getStore()
	if store == nil {
		return nil, fmt.Errorf("core: RetainedEpochs requires a durable engine (OpenDurable)")
	}
	return store.RetainedEpochs(), nil
}

// ExportEpoch exports the engine state captured by a retained checkpoint
// epoch of the bound data directory into dir, as Save exports the live state
// (dir must not already hold a data directory). The export can later be
// loaded with OpenDurable.
func (e *Engine) ExportEpoch(epoch uint64, dir string) error {
	store := e.getStore()
	if store == nil {
		return fmt.Errorf("core: ExportEpoch requires a durable engine (OpenDurable)")
	}
	snap, err := store.LoadEpoch(epoch)
	if err != nil {
		return err
	}
	return durable.Export(dir, e.fsys, snap)
}

// Checkpoint folds the committed state into a fresh checkpoint manifest of
// the bound data directory (writing only chunks that changed since the last
// one) and seals the WAL segment it covers, bounding recovery time. It
// requires a durable engine. Checkpoint waits for the whole checkpoint; see
// CheckpointAsync for the non-blocking form it wraps.
func (e *Engine) Checkpoint() error {
	done, err := e.CheckpointAsync()
	if err != nil {
		return err
	}
	return <-done
}

// CheckpointAsync begins a checkpoint and completes it in the background.
//
// The commit fence (every CVD's mutex) is held only long enough to
// capture copy-on-write references to the column lanes and version metadata
// and to seal the active WAL segment — typically far shorter than encoding
// and writing the checkpoint itself. Commits resume into a fresh WAL segment
// while chunk encoding, hashing, and manifest writing run on a background
// goroutine; the returned channel delivers that half's result (buffered, so
// it may be abandoned). Recovery composes the newest durable manifest with
// every WAL segment after it, so a crash mid-checkpoint loses nothing.
//
// One exception degrades to a synchronous checkpoint under the fence: a CVD
// whose journal is not this store (adopted since the last checkpoint, or
// poisoned by an append failure) must have its journal attached atomically
// with the checkpoint — no commit may land between "in the manifest" and
// "journaled" — so the fence is held through completion.
//
// Checkpoints are serialized: a second CheckpointAsync blocks until the
// previous one's background half finishes.
func (e *Engine) CheckpointAsync() (<-chan error, error) {
	e.ckptSem <- struct{}{}
	fail := func(err error) (<-chan error, error) {
		<-e.ckptSem
		return nil, err
	}
	snap, locked, release, err := e.buildSnapshot()
	if err != nil {
		return fail(err)
	}
	// buildSnapshot holds the registry lock, so the store cannot be cleared
	// by a concurrent Close between this read and the checkpoint itself.
	store := e.store
	if store == nil {
		release()
		return fail(fmt.Errorf("core: Checkpoint requires a durable engine (OpenDurable)"))
	}
	job, err := store.BeginCheckpoint()
	if err != nil {
		release()
		return fail(err)
	}
	attach := false
	for _, c := range locked {
		if j, jerr := c.JournalLocked(); j != cvd.Journal(store) || jerr != nil {
			attach = true
			break
		}
	}
	done := make(chan error, 1)
	if attach {
		stats, err := store.CompleteCheckpoint(job, snap)
		if err == nil {
			for _, c := range locked {
				c.SetJournalLocked(store)
			}
		}
		release()
		e.recordCheckpoint(stats, err)
		done <- err
		<-e.ckptSem
		return done, nil
	}
	release()
	go func() {
		stats, err := store.CompleteCheckpoint(job, snap)
		e.recordCheckpoint(stats, err)
		done <- err
		<-e.ckptSem
	}()
	return done, nil
}

// recordCheckpoint notes a completed checkpoint's stats for LastCheckpoint.
func (e *Engine) recordCheckpoint(stats durable.CheckpointStats, err error) {
	if err != nil {
		return
	}
	e.ckptStatsMu.Lock()
	e.lastCkpt = stats
	e.ckptDone = true
	e.ckptStatsMu.Unlock()
}

// LastCheckpoint returns the stats of the most recent successful checkpoint
// through this engine (ok reports whether one has completed).
func (e *Engine) LastCheckpoint() (stats durable.CheckpointStats, ok bool) {
	e.ckptStatsMu.Lock()
	defer e.ckptStatsMu.Unlock()
	return e.lastCkpt, e.ckptDone
}

// Close releases the durable binding: every CVD's journal is detached, the
// store is cleared (Durable reports false, DataDir returns "" afterwards),
// and the WAL file and directory lock are released. The in-memory engine
// remains usable as an ephemeral engine — later commits simply stop being
// journaled, instead of tripping journal-append failures against a closed
// WAL. Close on an ephemeral (or already closed) engine is a no-op.
//
// Close first waits out the background half of any in-flight CheckpointAsync
// (and keeps new checkpoints from starting mid-close), so the store is never
// closed under a running checkpoint.
func (e *Engine) Close() error {
	e.ckptSem <- struct{}{}
	defer func() { <-e.ckptSem }()
	e.mu.Lock()
	store := e.store
	e.store = nil
	cvds := make([]*cvd.CVD, 0, len(e.cvds))
	for _, c := range e.cvds {
		cvds = append(cvds, c)
	}
	e.mu.Unlock()
	if store == nil {
		return nil
	}
	// Detach outside the registry lock (lock order registry → CVD): each
	// detach waits out that CVD's in-flight commit, so no commit can reach
	// the store after it is closed and mistake "closed" for a lost write.
	for _, c := range cvds {
		c.SetJournal(nil)
	}
	return store.Close()
}
