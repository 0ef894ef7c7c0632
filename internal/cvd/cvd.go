package cvd

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
	"repro/internal/recset"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// CVD is a collaborative versioned dataset: a relation whose versions are
// tracked by OrpheusDB. It owns the version graph, each version's record set,
// version metadata, the attribute registry, and a physical data model inside a
// relstore database.
//
// A CVD is safe for concurrent use. A committed version never changes, and the
// record catalog, the record sets and the metadata only grow, so every writer —
// a commit, Init and replay, a schema change, SetWorkers, a partitioning, Drop —
// ends by publishing one immutable read state (readState) under the CVD's
// mutex, and every read loads the last published state once and reads nothing
// else: no read takes the mutex or waits for a writer, and no writer waits for
// a read. The mutex serializes writers; besides them only StorageBytes,
// JournalErr and the checkouts of the four in-memory models, whose tables are
// mutable maps, take it. The raw-structure accessors (Graph, DataModel, Rlist,
// Attributes) return live internal pointers and are NOT
// synchronized; callers that traverse or mutate them concurrently with
// commits must wrap the access in WithExclusive.
type CVD struct {
	name   string
	db     *relstore.Database
	model  DataModel
	kind   ModelKind
	schema relstore.Schema // current single-pool data schema (no rid column); replaced, never written

	graph *vgraph.Graph
	// catalog is the record catalog: every record ever committed, once, as one
	// row of column lanes — the rid, then the data attributes in the form the
	// schema in force stores them. Rids are handed out densely from 1, so
	// record r is row r-1 and a lookup is an index. Split-by-rlist registers
	// this very table in db as its data table; under the in-memory models it is
	// private to the CVD, off the database, so their storage accounting counts
	// the model's tables only.
	catalog *relstore.Table
	index   *recIndex // over catalog, for the current schema; nil until a commit needs it
	meta    *metadataStore
	attrs   *AttributeRegistry
	// sets holds version v's record set at v-1 — the version-record bipartite
	// graph of Chapter 5, and split-by-rlist's versioning table — once. It is
	// only appended to, so the published states share it.
	sets []*recset.Set

	nextRID vgraph.RecordID

	// mu serializes the writers of all version state above plus the physical
	// model; each ends by publishing state.
	mu    sync.Mutex
	state atomic.Pointer[readState]

	// ckMu guards the staging-table registry (checkouts, reserved) so
	// concurrent checkouts can register staging tables without serializing
	// their materialization work.
	ckMu      sync.Mutex
	checkouts map[string]checkoutInfo
	reserved  map[string]struct{} // staging names claimed by in-flight checkouts

	workers    int  // intra-operation parallelism (see Options.Workers)
	workersSet bool // workers was configured explicitly (Options or SetWorkers)
	csvSeq     atomic.Int64
	clock      func() time.Time

	// journal, when set, receives the logical redo record of every
	// successful commit (see SetJournal); guarded by mu like the rest of the
	// version state.
	journal Journal
	// journalErr is the sticky poison set when a journal append fails: the
	// in-memory CVD then holds a version the WAL lacks, and journaling any
	// later commit would reference state the log cannot replay. While set,
	// commits fail fast; attaching or detaching a journal (SetJournal /
	// SetJournalLocked — the checkpoint path, which folds the diverged state
	// into a fresh snapshot) clears it.
	journalErr error
}

// readState is the CVD as its last writer left it. Nothing in it is written
// once it is published: the catalog is a Table.View, and the slices are
// append-only ones whose entries below the lengths captured here never change,
// so a read goes on reading one state while later writers publish others.
type readState struct {
	catalog *relstore.Table  // view of the record catalog: record r at row r-1
	schema  relstore.Schema  // the data schema in force (no rid column)
	sets    []*recset.Set    // version v's record set at v-1
	metas   []*VersionMeta   // version v's metadata at v-1
	latest  vgraph.VersionID // the version with the latest commit time (0: none)
	// The partitioning: version v's partition at v-1 (-1: none), and partition
	// k's size, |resident_k|, at k. Both nil unpartitioned.
	partOf    []int
	partSizes []int64
	workers   int
	dropped   bool // Drop ran: every field above is empty
}

// has reports whether version v is in the state.
func (st *readState) has(v vgraph.VersionID) bool { return v >= 1 && int(v) <= len(st.sets) }

// partition returns version v's partition in st: -1 when st is unpartitioned
// or v has none.
func (st *readState) partition(v vgraph.VersionID) int {
	if st.partSizes == nil || v < 1 || int(v) > len(st.partOf) {
		return -1
	}
	return st.partOf[v-1]
}

// numRecords is the number of records in the state's catalog.
func (st *readState) numRecords() int {
	if st.catalog == nil {
		return 0
	}
	return st.catalog.Len()
}

// read returns the last published state.
func (c *CVD) read() *readState { return c.state.Load() }

// publish makes the CVD as it stands the state every read loads; the caller
// holds c.mu (or owns the CVD not yet handed out). A dropped CVD stays
// dropped.
func (c *CVD) publish() {
	prev := c.read()
	if prev != nil && prev.dropped {
		return
	}
	st := &readState{catalog: c.catalog.View(), schema: c.schema, sets: c.sets, metas: c.meta.metas, workers: c.workers}
	from := 0
	if prev != nil {
		st.latest, from = prev.latest, len(prev.metas)
	}
	for _, m := range st.metas[from:] {
		if st.latest == 0 || !m.CommitAt.Before(st.metas[st.latest-1].CommitAt) {
			st.latest = m.ID
		}
	}
	if m, ok := c.model.(*rlistModel); ok && m.resident != nil {
		st.partOf, st.partSizes = m.partOf, m.sizes()
	}
	c.state.Store(st)
}

// known returns nil when st holds every one of versions, and otherwise the
// error of a read that names a version it lacks or of a dropped CVD.
func (c *CVD) known(st *readState, versions ...vgraph.VersionID) error {
	if st.dropped {
		return c.errDropped()
	}
	for _, v := range versions {
		if !st.has(v) {
			return fmt.Errorf("cvd: %s: unknown version %d", c.name, v)
		}
	}
	return nil
}

type checkoutInfo struct {
	parents []vgraph.VersionID
	table   *relstore.Table // as handed out: only its rid cells are trusted at commit
	at      time.Time
}

// Options configures CVD creation.
type Options struct {
	// Model selects the physical data model; the default is SplitByRlist,
	// the model OrpheusDB adopts and the only one that persists. The four
	// others are in-memory reproductions of Figure 4.1: a durable engine
	// refuses them (CheckDurable).
	Model ModelKind
	// Author is recorded in the initial version's metadata.
	Author string
	// Message is the commit message of the initial version.
	Message string
	// Clock overrides the time source (used by tests and the benchmark
	// harness for reproducibility). Checkouts and commits call it
	// concurrently.
	Clock func() time.Time
	// At, when non-zero, is the commit timestamp of the initial version.
	// WAL replay uses it to reproduce the original metadata exactly; when
	// zero the clock supplies the time.
	At time.Time
	// Workers bounds the intra-operation parallelism of the hot paths
	// (multi-version checkout). 0 or 1 keeps every operation single-threaded
	// on the calling goroutine; n > 1 fans work out over the shared
	// worker-pool utility (package parallel).
	Workers int
}

// Init creates a new CVD named name inside db with the given data schema and
// initial rows, which become version 1.
func Init(db *relstore.Database, name string, schema relstore.Schema, rows []relstore.Row, opts Options) (*CVD, error) {
	c, err := newCVD(db, name, schema, opts)
	if err != nil {
		return nil, err
	}
	st, err := c.stageRows(rows, schema)
	if err != nil {
		c.meta.drop()
		return nil, err
	}
	req, fresh, err := c.buildCommit(nil, st)
	if err != nil {
		c.meta.drop()
		return nil, err
	}
	at := opts.At
	if at.IsZero() {
		at = c.clock()
	}
	if err := c.applyCommit(req, fresh, opts.Message, opts.Author, at); err != nil {
		c.meta.drop()
		return nil, err
	}
	c.publish()
	return c, nil
}

// newCVD builds a CVD with no versions yet: the metadata store and the
// physical model exist, the model's tables do not (its Init creates them with
// the first version).
func newCVD(db *relstore.Database, name string, schema relstore.Schema, opts Options) (*CVD, error) {
	if name == "" {
		return nil, fmt.Errorf("cvd: empty CVD name")
	}
	if len(schema.Columns) == 0 {
		return nil, fmt.Errorf("cvd: schema must have at least one column")
	}
	if schema.HasColumn(ridColumn) {
		return nil, fmt.Errorf("cvd: %q is a reserved column name", ridColumn)
	}
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	catalog := relstore.NewTable(rlistDataTabName(name), dataSchemaWithRID(schema))
	if opts.Model != SplitByRlist {
		catalog.Name = name + "_records" // private to the CVD, beside the model's own tables
	}
	c := &CVD{
		name:       name,
		db:         db,
		kind:       opts.Model,
		schema:     schema.Clone(),
		graph:      vgraph.New(),
		catalog:    catalog,
		index:      newRecIndex(schema),
		attrs:      NewAttributeRegistry(),
		nextRID:    1,
		checkouts:  make(map[string]checkoutInfo),
		reserved:   make(map[string]struct{}),
		workers:    opts.Workers,
		workersSet: opts.Workers != 0,
		clock:      clock,
	}
	if c.workers <= 0 {
		// Parallelism is strictly opt-in: an unset knob means single-threaded
		// operations, not "use every CPU".
		c.workers = 1
	}
	meta, err := newMetadataStore(db, name, nil)
	if err != nil {
		return nil, err
	}
	c.meta = meta
	model, err := newModel(opts.Model, c)
	if err != nil {
		meta.drop()
		return nil, err
	}
	c.model = model
	return c, nil
}

// Name returns the CVD name.
func (c *CVD) Name() string { return c.name }

// SetWorkers sets the intra-operation parallelism of the hot paths (see
// Options.Workers) after construction. n <= 0 means single-threaded.
func (c *CVD) SetWorkers(n int) {
	if n <= 0 {
		n = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workersSet = true
	c.setWorkersLocked(n)
}

// InheritWorkers sets the worker count like SetWorkers, but only when it was
// never configured explicitly (via Options.Workers or SetWorkers) — the same
// inheritance semantics core.Engine.Init applies to its Options. Used by
// core.Engine.Adopt so externally loaded CVDs pick up the engine's knob
// without clobbering a deliberate per-CVD choice.
func (c *CVD) InheritWorkers(n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.workersSet {
		return
	}
	c.setWorkersLocked(n)
}

// setWorkersLocked publishes a validated worker count; callers hold c.mu.
func (c *CVD) setWorkersLocked(n int) {
	c.workers = n
	c.publish()
}

// Model returns the physical data model kind in use.
func (c *CVD) Model() ModelKind { return c.kind }

// DataModel returns the underlying data model (for advanced operations such
// as partitioning of the split-by-rlist model). The returned pointer is live:
// synchronize mutations through WithExclusive when the CVD is shared.
func (c *CVD) DataModel() DataModel { return c.model }

// Rlist returns the split-by-rlist model when that model is in use, for
// partitioning operations; it returns an error otherwise. The returned
// pointer is live: synchronize mutations through WithExclusive when the CVD
// is shared. Each of its partitioning methods publishes what it changed.
func (c *CVD) Rlist() (*rlistModel, error) {
	m, ok := c.model.(*rlistModel)
	if !ok {
		return nil, fmt.Errorf("cvd: %s uses %s, not split-by-rlist", c.name, c.kind)
	}
	return m, nil
}

// WithExclusive runs fn while holding the CVD's mutex, excluding every other
// writer. It is how callers that reach into the live internals (Graph, Rlist,
// DataModel) — e.g. the partition optimizer applying a new partitioning — make
// those multi-step operations atomic; reads go on off the published state. fn
// must not call the CVD's own writers (Commit, SetWorkers, ...) nor the
// in-memory models' Checkout; use the raw accessors inside.
func (c *CVD) WithExclusive(fn func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fn()
}

// WithShared is WithExclusive for a caller that only reads the live internals
// (the reference benchmark's traced checkout).
func (c *CVD) WithShared(fn func() error) error { return c.WithExclusive(fn) }

// Schema returns the current (single-pool) data schema.
func (c *CVD) Schema() relstore.Schema { return c.read().schema.Clone() }

// Graph returns the version graph. The returned pointer is live: traversals
// concurrent with commits must be wrapped in WithExclusive.
func (c *CVD) Graph() *vgraph.Graph { return c.graph }

// Bipartite returns the version-record bipartite graph of the last published
// state, built afresh from the CVD's record sets (O(versions) pointers and the
// union of the sets) for a caller that hands it to a partitioner
// (partition.PlanMigration) or reads record sets by version. The CVD keeps no
// graph of its own: its record sets are the one copy.
func (c *CVD) Bipartite() *vgraph.Bipartite {
	b := vgraph.NewBipartite()
	for i, s := range c.read().sets {
		b.SetVersionSet(vgraph.VersionID(i+1), s)
	}
	return b
}

// Attributes returns the attribute registry (the attribute table of Section
// 4.3). The returned pointer is live: see Graph.
func (c *CVD) Attributes() *AttributeRegistry { return c.attrs }

// Versions returns all version ids in commit order, which is id order.
func (c *CVD) Versions() []vgraph.VersionID { return versionIDs(len(c.read().sets)) }

// versionIDs returns the ids of n versions: 1 to n.
func versionIDs(n int) []vgraph.VersionID {
	out := make([]vgraph.VersionID, n)
	for i := range out {
		out[i] = vgraph.VersionID(i + 1)
	}
	return out
}

// NumVersions returns the number of versions.
func (c *CVD) NumVersions() int { return len(c.read().sets) }

// NumRecords returns the number of distinct records across all versions.
func (c *CVD) NumRecords() int64 { return int64(c.read().numRecords()) }

// StorageBytes returns the accounted storage of the physical data model.
func (c *CVD) StorageBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.model.StorageBytes()
}

// Meta returns the metadata of a version.
func (c *CVD) Meta(v vgraph.VersionID) (*VersionMeta, bool) {
	st := c.read()
	if !st.has(v) {
		return nil, false
	}
	return st.metas[v-1], true
}

// AllMeta returns metadata for every version ordered by id.
func (c *CVD) AllMeta() []*VersionMeta { return slices.Clone(c.read().metas) }

// LatestVersion returns the version with the most recent commit time.
func (c *CVD) LatestVersion() (vgraph.VersionID, bool) {
	latest := c.read().latest
	return latest, latest != 0
}

// RecordContent returns the data values of a record by id, in the form the
// schema in force stores them — what a checkout of a version holding the
// record returns for it — not the form they were committed in: once a column
// is generalized from integer to decimal a record committed as integer 5
// reads as decimal 5, and a record older than a column reads NULL in it. The
// row is boxed for the caller; like any row read from a table it shares
// integer-array elements with the column storage and must not be written
// through.
func (c *CVD) RecordContent(r vgraph.RecordID) (relstore.Row, bool) {
	st := c.read()
	if r < 1 || int(r) > st.numRecords() {
		return nil, false
	}
	return st.catalog.RowAt(int(r) - 1)[1:], true
}

// VersionSnapshot is one version as Snapshot reads it: its metadata and its
// record set, the pointer the CVD holds, which is never written once the
// version is committed.
type VersionSnapshot struct {
	Meta    *VersionMeta
	Records *recset.Set
}

// Snapshot is the consistent read of the whole history (vquel.FromCVD): from
// one published state, a view of the record catalog (Table.View; record r is
// row r-1) and every version's metadata and record set, in commit order. It
// copies no record, and later commits change none of it, its schema included.
// The view is shared by every read of the state: the caller must not write it.
func (c *CVD) Snapshot() (*relstore.Table, []VersionSnapshot, error) {
	st := c.read()
	if err := c.known(st); err != nil {
		return nil, nil, err
	}
	out := make([]VersionSnapshot, len(st.sets))
	for i, s := range st.sets {
		out[i] = VersionSnapshot{Meta: st.metas[i], Records: s}
	}
	return st.catalog, out, nil
}

// RecordsOf returns the record ids of a version.
func (c *CVD) RecordsOf(v vgraph.VersionID) []vgraph.RecordID {
	st := c.read()
	if !st.has(v) {
		return nil
	}
	return vgraph.RecordIDs(st.sets[v-1])
}

// Drop removes all backing tables of the CVD from the database. Every read
// that starts after it finds the CVD empty or says it has been dropped, and
// checkouts still in flight when Drop runs fail instead of re-attaching their
// staging table to the database after the teardown.
func (c *CVD) Drop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked()
}

// errDropped is what every read and write of a dropped CVD returns.
func (c *CVD) errDropped() error { return fmt.Errorf("cvd: %s: CVD has been dropped", c.name) }

// dropLocked is Drop for a caller holding c.mu. The dropped state is published
// under ckMu, which orders it with a checkout's registration.
func (c *CVD) dropLocked() {
	c.model.Drop()
	c.meta.drop()
	c.ckMu.Lock()
	defer c.ckMu.Unlock()
	c.state.Store(&readState{dropped: true})
	for tab := range c.checkouts {
		c.db.DropTable(tab)
	}
	c.checkouts = make(map[string]checkoutInfo)
	c.reserved = make(map[string]struct{})
}

// columnPlaces maps each column of rowSchema to its index in target, the
// CVD's schema evolved by rowSchema.
func (c *CVD) columnPlaces(rowSchema, target relstore.Schema) ([]int, error) {
	place := make([]int, len(rowSchema.Columns))
	for j, col := range rowSchema.Columns {
		i := target.ColumnIndex(col.Name)
		if i < 0 {
			return nil, fmt.Errorf("cvd: %s: column %q not in CVD schema after evolution", c.name, col.Name)
		}
		place[j] = i
	}
	return place, nil
}

// mergedSchema returns the CVD's single-pool schema evolved by an incoming
// schema — new attributes are appended, conflicting types are generalized
// (Section 4.3) — and whether that differs from the current schema.
func (c *CVD) mergedSchema(incoming relstore.Schema) (relstore.Schema, bool, error) {
	changed := false
	merged := c.schema.Clone()
	for _, col := range incoming.Columns {
		if col.Name == ridColumn {
			continue
		}
		i := merged.ColumnIndex(col.Name)
		if i < 0 {
			var err error
			merged, err = merged.WithColumn(col)
			if err != nil {
				return relstore.Schema{}, false, err
			}
			changed = true
			continue
		}
		gen := relstore.GeneralizeType(merged.Columns[i].Type, col.Type)
		if gen != merged.Columns[i].Type {
			merged.Columns[i].Type = gen
			changed = true
		}
	}
	return merged, changed, nil
}

// adoptSchema makes an evolved schema (see mergedSchema) the CVD's and alters
// the catalog and the physical model to match. The record index describes
// records as the old schema stored them, so it goes.
func (c *CVD) adoptSchema(merged relstore.Schema) error {
	if err := alterTable(c.catalog, merged); err != nil {
		return err
	}
	if err := c.model.AlterSchema(merged); err != nil {
		return err
	}
	c.schema = merged
	c.index = nil
	return nil
}

// applyCommit writes a commit's fresh records (each its rid, ascending from the
// next one, then its data values) to the catalog, completes the request — which
// comes listing the records the version keeps — with them and with the
// version's record set, built here once, hands it to the physical model and
// records the version: the step a live commit and a replayed journal delta
// share. A model that refuses leaves the catalog as long as it was, so nothing
// of the commit stays behind in it.
func (c *CVD) applyCommit(req CommitRequest, fresh []relstore.Row, msg, author string, at time.Time) error {
	before := c.catalog.Len()
	err := c.appendRecords(fresh)
	if err == nil {
		for i := range fresh {
			req.RIDs = append(req.RIDs, c.nextRID+vgraph.RecordID(i))
		}
		req.Set = recset.FromSorted(req.RIDs)
		req.Records, req.New = c.catalog, len(fresh)
		if len(req.Parents) == 0 {
			err = c.model.Init(req)
		} else {
			err = c.model.AppendVersion(req)
		}
	}
	if err != nil {
		c.catalog.Shrink(before)
		return err
	}
	return c.recordVersion(req, fresh, msg, author, at)
}

// appendRecords writes fresh records — each its rid, then its data values
// aligned with the schema — as the catalog's next rows, every cell in the form
// its column stores (see canonical): the one copy of a record the CVD keeps.
func (c *CVD) appendRecords(fresh []relstore.Row) error {
	row := make(relstore.Row, 1+len(c.schema.Columns))
	var buf relstore.Value
	for _, rec := range fresh {
		if rid := rec[0].AsInt(); rid != int64(c.catalog.Len())+1 {
			return fmt.Errorf("cvd: %s: record id %d does not continue a catalog of %d records", c.name, rid, c.catalog.Len())
		}
		row[0] = rec[0]
		for j, col := range c.schema.Columns {
			row[j+1] = *canonical(&rec[j+1], col.Type, &buf)
		}
		if err := c.catalog.Insert(row); err != nil {
			return err
		}
	}
	return nil
}

// recordVersion updates the version graph, the record sets, metadata and
// record index after the physical model has accepted the commit.
func (c *CVD) recordVersion(req CommitRequest, fresh []relstore.Row, msg, author string, at time.Time) error {
	if _, err := c.graph.AddVersion(req.Version, int64(len(req.RIDs))); err != nil {
		return err
	}
	// The parent edge weights are intersection cardinalities against the
	// parents' sets; the version's own set is then appended to them, the same
	// pointer the model keeps.
	attrIDs := c.attrs.RegisterSchema(c.schema)
	for _, p := range req.Parents {
		common := recset.AndLen(c.recordSet(p), req.Set)
		if err := c.graph.AddEdgeAttrs(p, req.Version, common, len(c.schema.Columns)); err != nil {
			return err
		}
	}
	c.sets = append(c.sets, req.Set)
	m := &VersionMeta{
		ID:         req.Version,
		Parents:    append([]vgraph.VersionID(nil), req.Parents...),
		CommitAt:   at,
		Message:    msg,
		Author:     author,
		Attributes: attrIDs,
		NumRecords: int64(len(req.RIDs)),
	}
	if err := c.meta.add(m); err != nil {
		return err
	}
	if c.index != nil {
		for i, rec := range fresh {
			c.index.add(c.nextRID+vgraph.RecordID(i), rec[1:])
		}
	}
	c.nextRID += vgraph.RecordID(len(fresh))
	return nil
}

// recordSet returns version v's record set (nil when there is no version v)
// for a writer, which holds c.mu. It is shared: read it, never mutate it.
func (c *CVD) recordSet(v vgraph.VersionID) *recset.Set {
	if v < 1 || int(v) > len(c.sets) {
		return nil
	}
	return c.sets[v-1]
}

// unionSet returns the union of the versions' record sets, as a fresh set the
// caller owns.
func (c *CVD) unionSet(vs []vgraph.VersionID) *recset.Set {
	out := recset.New()
	for _, v := range vs {
		out.UnionWith(c.recordSet(v))
	}
	return out
}

// records returns version v's record ids ascending, as a fresh slice: a
// CommitRequest's ParentRIDs.
func (c *CVD) records(v vgraph.VersionID) []vgraph.RecordID { return vgraph.RecordIDs(c.recordSet(v)) }

// nextVersion is the id the next commit takes: ids are dense from 1.
func (c *CVD) nextVersion() vgraph.VersionID { return vgraph.VersionID(len(c.sets) + 1) }

// Checkout materializes one or more versions into a staging table registered
// in the database under tableName. When several versions are listed the
// records are merged in precedence order: a record whose primary key was
// already added by an earlier version is omitted (Section 3.3.1). The
// staging table contains the rid column followed by the data attributes.
//
// A split-by-rlist checkout reads the published state alone — the catalog's
// view, partitioned or not — so it neither waits for a writer nor makes one
// wait, and any number run at once. The in-memory models are read under the
// CVD's mutex. The staging name is reserved up front so two concurrent
// checkouts cannot claim the same table.
func (c *CVD) Checkout(versions []vgraph.VersionID, tableName string) (*relstore.Table, error) {
	return c.checkout(c.read(), versions, tableName)
}

// checkout is Checkout off st.
func (c *CVD) checkout(st *readState, versions []vgraph.VersionID, tableName string) (*relstore.Table, error) {
	if len(versions) == 0 {
		return nil, fmt.Errorf("cvd: %s: checkout requires at least one version", c.name)
	}
	if tableName == "" {
		return nil, fmt.Errorf("cvd: %s: checkout requires a table name", c.name)
	}
	c.ckMu.Lock()
	_, inFlight := c.reserved[tableName]
	if inFlight || c.db.HasTable(tableName) {
		c.ckMu.Unlock()
		return nil, fmt.Errorf("cvd: %s: table %q already exists", c.name, tableName)
	}
	c.reserved[tableName] = struct{}{}
	c.ckMu.Unlock()

	out, err := c.materialize(st, versions, tableName)

	c.ckMu.Lock()
	delete(c.reserved, tableName)
	if err == nil && c.read().dropped {
		// Drop ran after st was published: registering the staging table now
		// would leak it past the teardown.
		err = c.errDropped()
	}
	if err == nil {
		c.db.AttachTable(out)
		c.checkouts[tableName] = checkoutInfo{parents: append([]vgraph.VersionID(nil), versions...), table: out, at: c.clock()}
	}
	c.ckMu.Unlock()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// materialize produces the checkout table off st, or, for the in-memory
// models, off their tables under the mutex and the state published there.
func (c *CVD) materialize(st *readState, versions []vgraph.VersionID, tableName string) (*relstore.Table, error) {
	if c.kind != SplitByRlist {
		c.mu.Lock()
		defer c.mu.Unlock()
		st = c.read()
	}
	if err := c.known(st, versions...); err != nil {
		return nil, err
	}
	var out *relstore.Table
	var err error
	if len(versions) == 1 {
		out, err = c.checkoutOne(st, versions[0], tableName)
	} else {
		out, err = c.checkoutMerged(st, versions, tableName)
	}
	if err != nil {
		return nil, err
	}
	// However the model filled the table, from here on a written row is one
	// the table's user wrote (see CommitTable).
	out.MarkClean()
	return out, nil
}

// checkoutOne materializes version v, which st holds. Split-by-rlist joins its
// record set with st's view of the catalog, charged the scan of the catalog or,
// under a partitioning, of the version's partition; an in-memory model reads
// its tables, under the mutex materialize holds.
func (c *CVD) checkoutOne(st *readState, v vgraph.VersionID, tableName string) (*relstore.Table, error) {
	if c.kind != SplitByRlist {
		return c.model.Checkout(v, tableName)
	}
	scanned := st.numRecords()
	if st.partSizes != nil {
		k := st.partition(v)
		if k < 0 {
			return nil, fmt.Errorf("cvd: %s: version %d has no partition assignment", c.name, v)
		}
		scanned = int(st.partSizes[k])
	}
	return joinCheckout(st.catalog, st.sets[v-1], scanned, tableName)
}

// checkoutMerged materializes multiple versions with primary-key precedence.
// The per-version materializations run in parallel on the CVD's worker pool;
// the precedence merge itself stays sequential in version order so the result
// is identical to the single-threaded path.
func (c *CVD) checkoutMerged(st *readState, versions []vgraph.VersionID, tableName string) (*relstore.Table, error) {
	tmps, err := parallel.MapErr(st.workers, len(versions), func(i int) (*relstore.Table, error) {
		return c.checkoutOne(st, versions[i], fmt.Sprintf("%s_tmp%d", tableName, i))
	})
	if err != nil {
		return nil, err
	}
	out := relstore.NewTable(tableName, dataSchemaWithRID(st.schema))
	// Keys already taken, by typed identity (recindex.go): the hash of a row's
	// key cells files its index in keys.
	pk := st.schema.PrimaryKeyIndexes()
	keyCols := make([]relstore.Column, len(pk))
	for k, j := range pk {
		keyCols[k] = st.schema.Columns[j]
	}
	form := newRecForm(relstore.Schema{Columns: keyCols})
	var seenPK slots
	var keys []relstore.Row
	key := make(relstore.Row, len(pk))
	seenRID := make(map[int64]struct{})
	for _, t := range tmps {
		// Select the surviving positions of this version's staging table with
		// cell reads only, then append them column-wise in one batch.
		keep := make(relstore.Selection, 0, t.Len())
	rows:
		for i := 0; i < t.Len(); i++ {
			rid := t.IntAt(i, 0) // checkout tables carry rid first
			if _, dup := seenRID[rid]; dup {
				continue
			}
			if len(pk) > 0 {
				for k, j := range pk {
					key[k] = t.At(i, j+1) // +1 because checkout rows carry rid first
				}
				h := form.hash(key, nil)
				for id, at := seenPK.first(h); id != 0; id, at = seenPK.next(h, at) {
					if form.same(key, keys[id-1], nil) {
						continue rows
					}
				}
				keys = append(keys, slices.Clone(key))
				seenPK.add(uint32(len(keys)), h)
			}
			seenRID[rid] = struct{}{}
			keep = append(keep, int32(i))
		}
		if err := out.AppendFrom(t, keep); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// CheckoutToCSV materializes versions and writes them to w as CSV (the
// `checkout -f` path for data-science workflows). The rid column is omitted.
func (c *CVD) CheckoutToCSV(versions []vgraph.VersionID, w io.Writer) error {
	// The sequence number keeps concurrent exports (or deterministic test
	// clocks) from colliding on the temporary staging name.
	tmp := fmt.Sprintf("%s_csv_checkout_%d_%d", c.name, c.clock().UnixNano(), c.csvSeq.Add(1))
	t, err := c.Checkout(versions, tmp)
	if err != nil {
		return err
	}
	defer c.DiscardCheckout(tmp)
	// Project away the rid column using the staging table's own schema: the
	// CVD's current schema may already be wider if a commit evolved it after
	// the checkout materialized.
	cols := make([]string, 0, len(t.Schema.Columns))
	for _, col := range t.Schema.Columns {
		if col.Name != ridColumn {
			cols = append(cols, col.Name)
		}
	}
	proj, err := t.Project(tmp+"_proj", cols...)
	if err != nil {
		return err
	}
	return relstore.WriteCSV(w, proj)
}

// DiscardCheckout drops a staging table without committing it.
func (c *CVD) DiscardCheckout(tableName string) {
	c.ckMu.Lock()
	delete(c.checkouts, tableName)
	c.ckMu.Unlock()
	c.db.DropTable(tableName)
}

// CheckoutParents returns the versions a staging table was checked out from.
func (c *CVD) CheckoutParents(tableName string) ([]vgraph.VersionID, bool) {
	c.ckMu.Lock()
	defer c.ckMu.Unlock()
	info, ok := c.checkouts[tableName]
	if !ok {
		return nil, false
	}
	return append([]vgraph.VersionID(nil), info.parents...), true
}

// DiffResult reports the records present in one version but not another.
type DiffResult struct {
	OnlyInA []vgraph.RecordID
	OnlyInB []vgraph.RecordID
}

// Diff compares two versions and returns the record ids on each side only,
// computed as two compressed-set differences (already sorted by
// construction).
func (c *CVD) Diff(a, b vgraph.VersionID) (DiffResult, error) {
	st := c.read()
	if err := c.known(st, a, b); err != nil {
		return DiffResult{}, err
	}
	sa, sb := st.sets[a-1], st.sets[b-1]
	return DiffResult{
		OnlyInA: vgraph.RecordIDs(recset.AndNot(sa, sb)),
		OnlyInB: vgraph.RecordIDs(recset.AndNot(sb, sa)),
	}, nil
}
