// Package core is the OrpheusDB engine façade: the public entry point tying
// together the relational substrate (relstore), collaborative versioned
// datasets (cvd), the partition optimizer (partition), and the VQuel query
// language (vquel). Examples and the command-line tools use this package.
//
// An Engine is safe for concurrent use by many clients: the CVD registry is
// guarded by a read-write mutex, and each CVD serializes its writers (commits,
// the partition optimizer) behind its own mutex while checkouts, diffs, and
// queries read the state its last writer published, without waiting. The
// WithWorkers option additionally bounds the intra-operation parallelism of
// the hot paths (multi-version checkout, LyreSplit candidate evaluation, and
// a durable engine's checkpoint encode and load).
package core

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/cvd"
	"repro/internal/durable"
	"repro/internal/partition"
	"repro/internal/relstore"
	"repro/internal/vfs"
	"repro/internal/vgraph"
	"repro/internal/vquel"
)

// Engine is an OrpheusDB instance: a backing database plus the CVDs it
// manages. All methods are safe for concurrent use.
//
// An engine is either ephemeral (Open) or durable (OpenDurable): a durable
// engine is bound to a data directory whose snapshot and commit WAL it
// replayed on startup, appends every Init / Commit / Drop to the WAL (fsync
// on the commit boundary), and folds the WAL into a fresh snapshot on
// Checkpoint. See package durable for the on-disk format.
type Engine struct {
	mu      sync.RWMutex // guards the CVD registry
	db      *relstore.Database
	cvds    map[string]*cvd.CVD
	workers int

	// dropping reserves names mid-Drop (guarded by mu): the name stays
	// un-reusable by Init between the drop's WAL record being prepared and
	// the registry unlink, without holding mu across the fence wait.
	dropping map[string]struct{}

	// store is the durable data directory binding; nil for ephemeral
	// engines and after Close. Guarded by mu. The lock order across the
	// stack is engine registry → CVD lock → store append mutex (commits take
	// CVD → store; checkpoints take registry → every CVD → store).
	store *durable.Store
	// gc is the WAL group-commit configuration applied by OpenDurable when
	// gcSet (the GroupCommit option was given).
	gc    durable.GroupCommitConfig
	gcSet bool
	// retain is the checkpoint retention window applied by OpenDurable
	// (0 keeps the store default).
	retain int
	// fsys is the filesystem the durable layer — data directory and exports
	// alike — runs on: the real one unless WithFS substituted a vfs.FaultFS.
	fsys vfs.FS
	// recovery records what OpenDurable had to repair; immutable after open.
	recovery RecoveryInfo

	// ckptSem serializes checkpoints (including the background half of
	// CheckpointAsync); Close acquires it to wait out an in-flight background
	// checkpoint before closing the store.
	ckptSem chan struct{}
	// ckptStatsMu guards the last-checkpoint record.
	ckptStatsMu sync.Mutex
	lastCkpt    durable.CheckpointStats
	ckptDone    bool
}

// RecoveryInfo reports what opening a data directory had to repair, and where
// the open's time went.
type RecoveryInfo struct {
	// TornTail: a partially-written WAL record (crashed append) was found
	// and truncated away. Every fully-committed record before it survived.
	TornTail bool
	// StaleWAL: a WAL older than the snapshot was discarded — the signature
	// of a crash between a checkpoint's snapshot rename and WAL reset.
	// Everything in the discarded WAL is already in the snapshot.
	StaleWAL bool
	// Load is the time spent reading, verifying and decoding the newest
	// checkpoint's chunks, on Workers goroutines (0: no checkpoint).
	Load    time.Duration
	Workers int
	// Rebuild is the time spent rebuilding each CVD over its tables
	// (cvd.Restore).
	Rebuild time.Duration
	// Replay is the time spent replaying the Replayed WAL records that
	// continue the checkpoint.
	Replay   time.Duration
	Replayed int
}

// Recovery returns what OpenDurable had to repair when the engine's data
// directory was opened (the zero value for ephemeral engines and clean
// opens).
func (e *Engine) Recovery() RecoveryInfo { return e.recovery }

// Option configures an Engine at Open time.
type Option func(*Engine)

// WithWorkers sets the worker-pool size used by the engine's parallel code
// paths. n <= 1 keeps every CVD operation single-threaded on its calling
// goroutine (concurrent clients still run in parallel — this knob only
// bounds intra-operation fan-out). A durable engine's checkpoint encode and
// checkpoint load run on n goroutines, or GOMAXPROCS when n <= 0.
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithCheckpointRetention sets how many checkpoint manifests a durable engine
// retains for point-in-time restore (OpenAtEpoch); older manifests and the
// chunks only they reference are garbage-collected after each checkpoint.
// n < 1 and 0 keep the store default (durable.DefaultCheckpointRetention).
// Ephemeral engines ignore it.
func WithCheckpointRetention(n int) Option {
	return func(e *Engine) { e.retain = n }
}

// GroupCommit configures WAL group commit for a durable engine (OpenDurable;
// ephemeral engines ignore it): up to maxBatch concurrent commits share one
// WAL write+fsync, and a batch leader waits up to maxDelay for followers once
// the disk is free. maxBatch 1 disables batching (every commit fsyncs alone —
// the pre-group-commit behaviour); maxBatch <= 0 selects the default
// (durable.DefaultGroupCommitBatch). maxDelay 0 adds no latency: batches then
// form only from commits that queue while an earlier batch is fsyncing.
func GroupCommit(maxBatch int, maxDelay time.Duration) Option {
	return func(e *Engine) {
		e.gc = durable.GroupCommitConfig{MaxBatch: maxBatch, MaxDelay: maxDelay}
		e.gcSet = true
	}
}

// WithFS routes the engine's storage I/O — OpenDurable's data directory and
// the directories Save and ExportEpoch write — through fsys. The production
// default is the real filesystem; fault-injection tests pass a vfs.FaultFS to
// fail or crash at any chosen I/O operation.
func WithFS(fsys vfs.FS) Option {
	return func(e *Engine) { e.fsys = fsys }
}

// Open creates an engine over a fresh in-memory database.
func Open(name string, opts ...Option) *Engine {
	e := &Engine{
		db:       relstore.NewDatabase(name),
		cvds:     make(map[string]*cvd.CVD),
		dropping: make(map[string]struct{}),
		ckptSem:  make(chan struct{}, 1),
		fsys:     vfs.OS(),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Database exposes the backing database (staging tables live there).
func (e *Engine) Database() *relstore.Database { return e.db }

// Workers returns the configured intra-operation worker count (0 means
// single-threaded operations).
func (e *Engine) Workers() int { return e.workers }

// Init creates a new CVD from initial rows (the `init` command). Unless the
// options say otherwise, the CVD inherits the engine's worker count. On a
// durable engine the creation (with its first version's records) is appended
// to the commit WAL and fsynced before Init returns, and every later commit
// to the CVD is journaled as its delta the same way; a durable engine refuses
// a model other than split-by-rlist (cvd.CheckDurable).
func (e *Engine) Init(name string, schema relstore.Schema, rows []relstore.Row, opts cvd.Options) (*cvd.CVD, error) {
	if opts.Workers == 0 {
		opts.Workers = e.workers
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.store != nil {
		if err := cvd.CheckDurable(name, opts.Model); err != nil {
			return nil, err
		}
	}
	if _, dup := e.cvds[name]; dup {
		return nil, fmt.Errorf("core: CVD %q already exists", name)
	}
	if _, busy := e.dropping[name]; busy {
		return nil, fmt.Errorf("core: CVD %q is being dropped", name)
	}
	c, err := cvd.Init(e.db, name, schema, rows, opts)
	if err != nil {
		return nil, err
	}
	if e.store != nil {
		// The WAL append (including its fsync) runs under the registry lock
		// deliberately: holding e.mu across both the in-memory creation and
		// the OpInit append is what makes Init atomic with Checkpoint — a
		// checkpoint can never observe the CVD without its init record being
		// either folded in or in the continuing WAL.
		versions, delta, deltaSchema := c.InitDelta()
		meta, _ := c.Meta(1)
		if err := e.store.LogInit(name, versions, delta, deltaSchema, opts.Message, opts.Author, meta.CommitAt); err != nil {
			c.Drop()
			return nil, fmt.Errorf("core: journaling init of %q: %w", name, err)
		}
		c.SetJournal(e.store)
	}
	e.cvds[name] = c
	return c, nil
}

// Adopt registers an externally constructed CVD (for example one loaded by
// the benchmark harness directly against the engine's database) so that it
// is reachable through the engine façade. Like Init, the adopted CVD
// inherits the engine's worker count unless its own was set explicitly.
//
// On a durable engine an adopted CVD is NOT durable until the next
// Checkpoint: its pre-adoption history cannot be expressed as WAL records,
// so no journal is attached either — journaling commits against a CVD the
// snapshot does not contain would make the WAL unreplayable. Checkpoint
// folds the CVD into the snapshot and attaches the journal atomically; call
// it right after adopting. A durable engine refuses a CVD of another model
// than split-by-rlist (cvd.CheckDurable).
func (e *Engine) Adopt(c *cvd.CVD) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.store != nil {
		if err := cvd.CheckDurable(c.Name(), c.Model()); err != nil {
			return err
		}
	}
	if _, dup := e.cvds[c.Name()]; dup {
		return fmt.Errorf("core: CVD %q already exists", c.Name())
	}
	if _, busy := e.dropping[c.Name()]; busy {
		return fmt.Errorf("core: CVD %q is being dropped", c.Name())
	}
	c.InheritWorkers(e.workers)
	e.cvds[c.Name()] = c
	return nil
}

// InitFromCSV creates a new CVD from a CSV stream (the `init -f` path).
func (e *Engine) InitFromCSV(name string, r io.Reader, schema relstore.Schema, opts cvd.Options) (*cvd.CVD, error) {
	tab, err := relstore.ReadCSV(r, name+"_import", schema)
	if err != nil {
		return nil, err
	}
	return e.Init(name, schema, tab.Rows(), opts)
}

// CVD returns a managed CVD by name.
func (e *Engine) CVD(name string) (*cvd.CVD, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	c, ok := e.cvds[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown CVD %q", name)
	}
	return c, nil
}

// List returns the names of all managed CVDs (the `ls` command).
func (e *Engine) List() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.cvds))
	for n := range e.cvds {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Drop removes a CVD and its backing tables (the `drop` command). The
// registry lock is held only to unlink the CVD: the teardown itself — which
// must wait for in-flight checkouts and commits of that CVD — runs outside
// it, so concurrent List / CVD / Checkout calls on other datasets never
// stall behind one dataset's teardown.
func (e *Engine) Drop(name string) error {
	// Reserve the name first: Init refuses reserved names, so no OpInit for
	// a reused name can reach the WAL before this drop's OpDrop, without the
	// registry lock being held across the fence below.
	e.mu.Lock()
	c, ok := e.cvds[name]
	store := e.store
	if ok {
		if _, busy := e.dropping[name]; busy {
			ok = false // another Drop of the same name is in flight
		} else {
			e.dropping[name] = struct{}{}
		}
	}
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: unknown CVD %q", name)
	}
	var logErr error
	if store != nil {
		// WAL ordering: the OpDrop must land after any in-flight commit's
		// OpCommit, so fence the CVD's mutex (waiting out in-flight
		// work without holding e.mu — registry traffic on other datasets
		// stays live) and detach its journal; commits that slip in after the
		// fence journal nothing, and the teardown below discards them anyway.
		c.LockExclusive()
		c.SetJournalLocked(nil)
		logErr = store.LogDrop(name)
		c.UnlockExclusive()
	}
	e.mu.Lock()
	delete(e.cvds, name)
	e.mu.Unlock()
	// The name reservation outlives the unlink: it is released only after the
	// teardown finishes, so an Init reusing the name cannot create fresh
	// backing tables that the in-flight c.Drop() would then destroy.
	c.Drop()
	e.mu.Lock()
	delete(e.dropping, name)
	e.mu.Unlock()
	if logErr != nil {
		return fmt.Errorf("core: journaling drop of %q: %w", name, logErr)
	}
	return nil
}

// Checkout materializes versions of a CVD into a staging table (the
// `checkout -t` command).
func (e *Engine) Checkout(cvdName string, versions []vgraph.VersionID, tableName string) (*relstore.Table, error) {
	c, err := e.CVD(cvdName)
	if err != nil {
		return nil, err
	}
	return c.Checkout(versions, tableName)
}

// Commit commits a staging table back as a new version (the `commit -t`
// command).
func (e *Engine) Commit(cvdName, tableName, message, author string) (vgraph.VersionID, error) {
	c, err := e.CVD(cvdName)
	if err != nil {
		return 0, err
	}
	return c.CommitTable(tableName, message, author)
}

// Diff compares two versions (the `diff` command).
func (e *Engine) Diff(cvdName string, a, b vgraph.VersionID) (cvd.DiffResult, error) {
	c, err := e.CVD(cvdName)
	if err != nil {
		return cvd.DiffResult{}, err
	}
	return c.Diff(a, b)
}

// OptimizeReport summarizes what the `optimize` command did.
type OptimizeReport struct {
	Partitions       int
	Delta            float64
	EstimatedStorage int64
	EstimatedAvgCost float64
}

// Optimize runs the partition optimizer on a split-by-rlist CVD with the
// given storage threshold factor (γ = factor·|R|) and applies the resulting
// partitioning (the `optimize` command). A partitioning is a plan, not a copy:
// it assigns each version a partition and keeps each partition's resident
// set, so the CVD's modelled storage (StorageBytes, DataRecordCount) and each
// checkout's accounted scan follow Chapter 5, while the records stay once, in
// the data table, and the database stores what it stored before. The whole
// optimize-and-apply runs under the CVD's mutex, and checkouts read the
// partitioning it publishes once built, never a half-built one. The WAL
// journals commits, not partitionings, so on a durable engine Optimize returns
// only once a checkpoint holds the partitioning, taken after the lock is
// released (as Adopt's is); that checkpoint writes the CVD head and no table.
func (e *Engine) Optimize(cvdName string, storageFactor float64) (OptimizeReport, error) {
	c, err := e.CVD(cvdName)
	if err != nil {
		return OptimizeReport{}, err
	}
	var rep OptimizeReport
	err = c.WithExclusive(func() error {
		m, err := c.Rlist()
		if err != nil {
			return err
		}
		tree, err := vgraph.ToTree(c.Graph())
		if err != nil {
			return err
		}
		if storageFactor < 1 {
			storageFactor = 2
		}
		gamma := int64(storageFactor * float64(tree.DistinctRecords()))
		res, err := partition.SolveStorageConstraint(tree, gamma, partition.LyreSplitOptions{Workers: e.workers})
		if err != nil {
			return err
		}
		if err := m.ApplyPartitioning(res.Partitioning); err != nil {
			return err
		}
		rep = OptimizeReport{
			Partitions:       res.Partitioning.NumPartitions,
			Delta:            res.Delta,
			EstimatedStorage: res.EstimatedStorage,
			EstimatedAvgCost: res.EstimatedAvgCheckout,
		}
		return nil
	})
	if err != nil {
		return OptimizeReport{}, err
	}
	if e.Durable() {
		if err := e.Checkpoint(); err != nil {
			return OptimizeReport{}, fmt.Errorf("core: checkpointing the partitioning of %q: %w", cvdName, err)
		}
	}
	return rep, nil
}

// Query runs a VQuel query against a CVD's version history (the `run`
// command with VQuel input).
func (e *Engine) Query(cvdName, query string) (*vquel.Result, error) {
	c, err := e.CVD(cvdName)
	if err != nil {
		return nil, err
	}
	repo, err := vquel.FromCVD(c)
	if err != nil {
		return nil, err
	}
	return vquel.NewEvaluator(repo).Run(query)
}
