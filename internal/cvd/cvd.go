package cvd

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
	"repro/internal/recset"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// CVD is a collaborative versioned dataset: a relation whose versions are
// tracked by OrpheusDB. It owns the version graph, the version-record
// bipartite graph, version metadata, the attribute registry, and a physical
// data model inside a relstore database.
//
// A CVD is safe for concurrent use: commits take an exclusive lock while
// checkouts, diffs and versioned queries share a read lock, so any number of
// readers proceed in parallel. The raw-structure accessors (Graph, Bipartite,
// DataModel, Rlist, Attributes) return live internal pointers and are NOT
// synchronized; callers that traverse or mutate them concurrently with other
// operations must wrap the access in WithExclusive (or WithShared for pure
// reads).
type CVD struct {
	name   string
	db     *relstore.Database
	model  DataModel
	kind   ModelKind
	schema relstore.Schema // current single-pool data schema (no rid column)

	graph   *vgraph.Graph
	bip     *vgraph.Bipartite
	records map[vgraph.RecordID]relstore.Row // record catalog: rid -> data values
	meta    *metadataStore
	attrs   *AttributeRegistry

	nextVID vgraph.VersionID
	nextRID vgraph.RecordID

	// mu guards all version state above plus the physical model: commits and
	// schema evolution take it exclusively, checkouts and queries share it.
	mu sync.RWMutex

	// ckMu guards the staging-table registry (checkouts, reserved) so
	// concurrent checkouts can register staging tables without serializing
	// their materialization work behind an exclusive lock.
	ckMu      sync.Mutex
	checkouts map[string]checkoutInfo
	reserved  map[string]struct{} // staging names claimed by in-flight checkouts
	dropped   bool                // set by Drop; refuses new/in-flight checkouts

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

type checkoutInfo struct {
	parents []vgraph.VersionID
	at      time.Time
}

// Options configures CVD creation.
type Options struct {
	// Model selects the physical data model; the default is SplitByRlist,
	// the model OrpheusDB adopts.
	Model ModelKind
	// Author is recorded in the initial version's metadata.
	Author string
	// Message is the commit message of the initial version.
	Message string
	// Clock overrides the time source (used by tests and the benchmark
	// harness for reproducibility).
	Clock func() time.Time
	// At, when non-zero, is the commit timestamp of the initial version.
	// WAL replay uses it to reproduce the original metadata exactly; when
	// zero the clock supplies the time.
	At time.Time
	// Workers bounds the intra-operation parallelism of the hot paths
	// (multi-version checkout, partitioned scans, partition builds). 0 or 1
	// keeps every operation single-threaded on the calling goroutine; n > 1
	// fans work out over the shared worker-pool utility (package parallel).
	Workers int
}

// Init creates a new CVD named name inside db with the given data schema and
// initial rows, which become version 1.
func Init(db *relstore.Database, name string, schema relstore.Schema, rows []relstore.Row, opts Options) (*CVD, error) {
	c, err := newCVD(db, name, schema, opts)
	if err != nil {
		return nil, err
	}
	if err := c.checkPrimaryKey(rows, schema); err != nil {
		c.meta.drop()
		return nil, err
	}
	req, err := c.buildCommit(nil, rows, schema)
	if err != nil {
		c.meta.drop()
		return nil, err
	}
	at := opts.At
	if at.IsZero() {
		at = c.clock()
	}
	if err := c.applyCommit(req, opts.Message, opts.Author, at); err != nil {
		c.meta.drop()
		return nil, err
	}
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
	c := &CVD{
		name:       name,
		db:         db,
		kind:       opts.Model,
		schema:     schema.Clone(),
		graph:      vgraph.New(),
		bip:        vgraph.NewBipartite(),
		records:    make(map[vgraph.RecordID]relstore.Row),
		attrs:      NewAttributeRegistry(),
		nextVID:    1,
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
	meta, err := newMetadataStore(db, name)
	if err != nil {
		return nil, err
	}
	c.meta = meta
	model, err := newModel(opts.Model, db, name, schema)
	if err != nil {
		meta.drop()
		return nil, err
	}
	if rm, ok := model.(*rlistModel); ok {
		rm.SetWorkers(opts.Workers)
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

// setWorkersLocked propagates a validated worker count to the CVD and its
// physical model; callers hold c.mu.
func (c *CVD) setWorkersLocked(n int) {
	c.workers = n
	if rm, ok := c.model.(*rlistModel); ok {
		rm.SetWorkers(n)
	}
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
// is shared.
func (c *CVD) Rlist() (*rlistModel, error) {
	m, ok := c.model.(*rlistModel)
	if !ok {
		return nil, fmt.Errorf("cvd: %s uses %s, not split-by-rlist", c.name, c.kind)
	}
	return m, nil
}

// WithExclusive runs fn while holding the CVD's exclusive lock, excluding all
// concurrent commits, checkouts, and queries. It is how callers that reach
// into the live internals (Graph, Rlist, DataModel) — e.g. the partition
// optimizer applying a new partitioning — make those multi-step operations
// atomic. fn must not call the CVD's own locking methods (Checkout, Commit,
// Versions, ...); use the raw accessors inside.
func (c *CVD) WithExclusive(fn func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fn()
}

// WithShared runs fn while holding the CVD's shared (read) lock. It gives a
// consistent multi-step view over the live internals while commits are
// excluded; other readers proceed concurrently. The same re-entrancy rule as
// WithExclusive applies: fn must not call the CVD's own locking methods.
func (c *CVD) WithShared(fn func() error) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return fn()
}

// Schema returns the current (single-pool) data schema.
func (c *CVD) Schema() relstore.Schema {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.schema.Clone()
}

// Graph returns the version graph. The returned pointer is live: traversals
// concurrent with commits must be wrapped in WithShared/WithExclusive.
func (c *CVD) Graph() *vgraph.Graph { return c.graph }

// Bipartite returns the version-record bipartite graph. The returned pointer
// is live: see Graph.
func (c *CVD) Bipartite() *vgraph.Bipartite { return c.bip }

// Attributes returns the attribute registry (the attribute table of Section
// 4.3). The returned pointer is live: see Graph.
func (c *CVD) Attributes() *AttributeRegistry { return c.attrs }

// Versions returns all version ids in commit order.
func (c *CVD) Versions() []vgraph.VersionID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.graph.Versions()
}

// NumVersions returns the number of versions.
func (c *CVD) NumVersions() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.graph.NumVersions()
}

// NumRecords returns the number of distinct records across all versions.
func (c *CVD) NumRecords() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return int64(len(c.records))
}

// StorageBytes returns the accounted storage of the physical data model.
func (c *CVD) StorageBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.model.StorageBytes()
}

// Meta returns the metadata of a version.
func (c *CVD) Meta(v vgraph.VersionID) (*VersionMeta, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.meta.get(v)
}

// AllMeta returns metadata for every version ordered by id.
func (c *CVD) AllMeta() []*VersionMeta {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.meta.all()
}

// LatestVersion returns the version with the most recent commit time.
func (c *CVD) LatestVersion() (vgraph.VersionID, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.meta.latest()
	if !ok {
		return 0, false
	}
	return m.ID, true
}

// RecordContent returns the data values of a record by id.
func (c *CVD) RecordContent(r vgraph.RecordID) (relstore.Row, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.recordContentLocked(r)
}

// recordContentLocked is RecordContent for callers already holding c.mu.
func (c *CVD) recordContentLocked(r vgraph.RecordID) (relstore.Row, bool) {
	row, ok := c.records[r]
	if !ok {
		return nil, false
	}
	return padRow(row.Clone(), len(c.schema.Columns)), true
}

// VersionSnapshot is one version's metadata plus its materialized rows, as
// returned by Snapshot.
type VersionSnapshot struct {
	Meta *VersionMeta
	Rows []relstore.Row
}

// Snapshot returns, under a single shared lock, the current schema together
// with every version's metadata and materialized rows in commit order. It is
// the consistent read path for whole-history consumers (vquel.FromCVD):
// piecing the same view together from separate Schema/Versions/Meta/
// RecordContent calls can interleave with a schema-widening commit and
// observe rows wider than the schema they were paired with.
func (c *CVD) Snapshot() (relstore.Schema, []VersionSnapshot, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	schema := c.schema.Clone()
	versions := c.graph.Versions()
	out := make([]VersionSnapshot, 0, len(versions))
	for _, vid := range versions {
		m, ok := c.meta.get(vid)
		if !ok {
			return relstore.Schema{}, nil, fmt.Errorf("cvd: %s: missing metadata for version %d", c.name, vid)
		}
		rids := c.bip.RecordSet(vid)
		rows := make([]relstore.Row, 0, rids.Len())
		rids.ForEach(func(rid int64) bool {
			if row, ok := c.recordContentLocked(vgraph.RecordID(rid)); ok {
				rows = append(rows, row)
			}
			return true
		})
		out = append(out, VersionSnapshot{Meta: m, Rows: rows})
	}
	return schema, out, nil
}

// RecordsOf returns the record ids of a version.
func (c *CVD) RecordsOf(v vgraph.VersionID) []vgraph.RecordID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.recordsOfLocked(v)
}

// recordsOfLocked is RecordsOf for callers already holding c.mu.
func (c *CVD) recordsOfLocked(v vgraph.VersionID) []vgraph.RecordID {
	// Bipartite.Records materializes a fresh slice the caller owns.
	return c.bip.Records(v)
}

// Drop removes all backing tables of the CVD from the database. Checkouts
// still in flight when Drop runs fail instead of re-attaching their staging
// table to the database after the teardown.
func (c *CVD) Drop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked()
}

// dropLocked is Drop for a caller holding c.mu exclusively.
func (c *CVD) dropLocked() {
	c.model.Drop()
	c.meta.drop()
	c.ckMu.Lock()
	defer c.ckMu.Unlock()
	c.dropped = true
	for tab := range c.checkouts {
		c.db.DropTable(tab)
	}
	c.checkouts = make(map[string]checkoutInfo)
	c.reserved = make(map[string]struct{})
}

// contentKey encodes a data row (padded to the current schema width) for
// record-identity comparison during commit.
func (c *CVD) contentKey(r relstore.Row) string {
	padded := padRow(r, len(c.schema.Columns))
	var b strings.Builder
	for i, v := range padded[:len(c.schema.Columns)] {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(v.AsString())
	}
	return b.String()
}

// checkPrimaryKey verifies that no two rows share primary-key values (a
// constraint that must hold within a single version).
func (c *CVD) checkPrimaryKey(rows []relstore.Row, schema relstore.Schema) error {
	pk := schema.PrimaryKeyIndexes()
	if len(pk) == 0 {
		return nil
	}
	seen := make(map[string]struct{}, len(rows))
	for _, r := range rows {
		var b strings.Builder
		for _, i := range pk {
			if i < len(r) {
				b.WriteString(r[i].AsString())
			}
			b.WriteByte('\x1f')
		}
		k := b.String()
		if _, dup := seen[k]; dup {
			return fmt.Errorf("cvd: %s: duplicate primary key %q within a version", c.name, k)
		}
		seen[k] = struct{}{}
	}
	return nil
}

// buildCommit diffs the staged rows against the parent versions following
// the no cross-version diff rule: a staged row reuses the rid of a parent
// record with identical content; all other rows get fresh rids. Everything
// that can refuse the rows is checked before the schema evolves, and the fresh
// rids are only numbered here — recordVersion is what takes them from the
// catalog — so a commit that fails allocates nothing, and the next journalled
// delta still continues the log (see replay).
func (c *CVD) buildCommit(parents []vgraph.VersionID, rows []relstore.Row, schema relstore.Schema) (CommitRequest, error) {
	merged, changed, err := c.mergedSchema(schema)
	if err != nil {
		return CommitRequest{}, err
	}
	place, err := c.columnPlaces(schema, merged)
	if err != nil {
		return CommitRequest{}, err
	}
	for _, r := range rows {
		if len(r) != len(schema.Columns) {
			return CommitRequest{}, fmt.Errorf("cvd: %s: row has %d values but schema has %d columns", c.name, len(r), len(schema.Columns))
		}
	}
	// Single-pool schema evolution next, so content keys use the final width.
	if changed {
		if err := c.adoptSchema(merged); err != nil {
			return CommitRequest{}, err
		}
	}
	req := CommitRequest{
		Version:    c.nextVID,
		Parents:    append([]vgraph.VersionID(nil), parents...),
		ParentRIDs: make(map[vgraph.VersionID][]vgraph.RecordID, len(parents)),
		Lookup:     c.lookupRecord,
	}
	parentByKey := make(map[string]vgraph.RecordID)
	for _, p := range parents {
		rids := c.recordsOfLocked(p)
		req.ParentRIDs[p] = rids
		for _, rid := range rids {
			key := c.contentKey(c.records[rid])
			if _, exists := parentByKey[key]; !exists {
				parentByKey[key] = rid
			}
		}
	}
	seenRID := make(map[vgraph.RecordID]struct{}, len(rows))
	kept := make([]vgraph.RecordID, 0, len(rows))
	for _, r := range rows {
		aligned := make(relstore.Row, len(merged.Columns))
		for i := range aligned {
			aligned[i] = relstore.Null()
		}
		for j, i := range place {
			aligned[i] = r[j]
		}
		key := c.contentKey(aligned)
		if rid, ok := parentByKey[key]; ok {
			if _, dup := seenRID[rid]; dup {
				continue // identical duplicate row within the staged table
			}
			seenRID[rid] = struct{}{}
			kept = append(kept, rid)
			continue
		}
		rid := c.nextRID + vgraph.RecordID(len(req.NewRecords))
		req.NewRecords = append(req.NewRecords, CommitRecord{RID: rid, Row: aligned})
	}
	// Canonical record order: ascending rid, whatever order the rows were
	// staged in — the one order a replayed journal delta can reproduce (see
	// replay). Fresh rids are numbered in ascending order above every existing
	// one, so only the kept records need sorting.
	slices.Sort(kept)
	req.RIDs = kept
	for _, rec := range req.NewRecords {
		req.RIDs = append(req.RIDs, rec.RID)
	}
	return req, nil
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
// the physical model to match.
func (c *CVD) adoptSchema(merged relstore.Schema) error {
	if err := c.model.AlterSchema(merged); err != nil {
		return err
	}
	c.schema = merged
	return nil
}

func (c *CVD) lookupRecord(rid vgraph.RecordID) (relstore.Row, bool) {
	r, ok := c.records[rid]
	if !ok {
		return nil, false
	}
	return padRow(r.Clone(), len(c.schema.Columns)), true
}

// applyCommit hands a built request to the physical model and records the
// version — the step a live commit and a replayed journal delta share.
func (c *CVD) applyCommit(req CommitRequest, msg, author string, at time.Time) error {
	var err error
	if len(req.Parents) == 0 {
		err = c.model.Init(req)
	} else {
		err = c.model.AppendVersion(req)
	}
	if err != nil {
		return err
	}
	return c.recordVersion(req, msg, author, at)
}

// recordVersion updates the version graph, bipartite graph, metadata and
// record catalog after the physical model has accepted the commit.
func (c *CVD) recordVersion(req CommitRequest, msg, author string, at time.Time) error {
	if _, err := c.graph.AddVersion(req.Version, int64(len(req.RIDs))); err != nil {
		return err
	}
	// Build the new version's record set once: the parent edge weights are
	// intersection cardinalities against sets the bipartite graph already
	// holds, and the set itself is then handed to the graph.
	vals := make([]int64, len(req.RIDs))
	for i, r := range req.RIDs {
		vals[i] = int64(r)
	}
	vset := recset.FromSlice(vals)
	attrIDs := c.attrs.RegisterSchema(c.schema)
	for _, p := range req.Parents {
		common := recset.AndLen(c.bip.RecordSet(p), vset)
		if err := c.graph.AddEdgeAttrs(p, req.Version, common, len(c.schema.Columns)); err != nil {
			return err
		}
	}
	c.bip.SetVersionSet(req.Version, vset)
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
	for _, rec := range req.NewRecords {
		c.records[rec.RID] = rec.Row
	}
	c.nextRID += vgraph.RecordID(len(req.NewRecords))
	c.nextVID++
	return nil
}

// Commit adds a new version derived from parents with the given rows (data
// attributes in rowSchema order). It returns the new version id. This is the
// programmatic path; CommitTable commits a previously checked-out staging
// table. Commit holds the CVD's exclusive lock for its duration: concurrent
// commits serialize, and checkouts/queries wait rather than observing a
// half-applied version.
func (c *CVD) Commit(parents []vgraph.VersionID, rows []relstore.Row, rowSchema relstore.Schema, msg, author string) (vgraph.VersionID, error) {
	if len(parents) == 0 {
		return 0, fmt.Errorf("cvd: %s: commit requires at least one parent version", c.name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal != nil && c.journalErr != nil {
		// An earlier commit was applied in memory but never reached the WAL.
		// Journaling this one would produce a log that replays against a
		// parent the WAL does not contain — refuse before touching any state,
		// so the divergence stays confined to the one lost version until a
		// checkpoint (which snapshots the diverged state and re-arms the
		// journal) or a reopen heals it.
		return 0, fmt.Errorf("cvd: %s: commit refused: journal poisoned by an earlier append failure (in-memory state diverged from the WAL; checkpoint or reopen to recover): %w", c.name, c.journalErr)
	}
	for _, p := range parents {
		if c.graph.Node(p) == nil {
			return 0, fmt.Errorf("cvd: %s: unknown parent version %d", c.name, p)
		}
	}
	if err := c.checkPrimaryKey(rows, rowSchema); err != nil {
		return 0, err
	}
	req, err := c.buildCommit(parents, rows, rowSchema)
	if err != nil {
		return 0, err
	}
	at := c.clock()
	if err := c.applyCommit(req, msg, author, at); err != nil {
		return 0, err
	}
	if c.journal != nil {
		versions, delta, schema := c.deltaLocked(req.Version, parents)
		if err := c.journal.LogCommit(c.name, versions, delta, schema, msg, author, at); err != nil {
			// The commit is applied in memory but the WAL lacks it: poison the
			// journal so every later commit fails fast instead of appending
			// records that replay against this missing version, then surface
			// the durability failure so the caller knows the WAL does not
			// cover it.
			c.journalErr = err
			return req.Version, fmt.Errorf("cvd: %s: version %d committed but journaling failed: %w", c.name, req.Version, err)
		}
	}
	return req.Version, nil
}

// Checkout materializes one or more versions into a staging table registered
// in the database under tableName. When several versions are listed the
// records are merged in precedence order: a record whose primary key was
// already added by an earlier version is omitted (Section 3.3.1). The
// staging table contains the rid column followed by the data attributes.
//
// Checkout holds only the shared lock while materializing, so any number of
// checkouts (and queries) run concurrently; the staging name is reserved
// up front so two concurrent checkouts cannot claim the same table.
func (c *CVD) Checkout(versions []vgraph.VersionID, tableName string) (*relstore.Table, error) {
	if len(versions) == 0 {
		return nil, fmt.Errorf("cvd: %s: checkout requires at least one version", c.name)
	}
	if tableName == "" {
		return nil, fmt.Errorf("cvd: %s: checkout requires a table name", c.name)
	}
	c.ckMu.Lock()
	if c.dropped {
		c.ckMu.Unlock()
		return nil, fmt.Errorf("cvd: %s: CVD has been dropped", c.name)
	}
	_, inFlight := c.reserved[tableName]
	if inFlight || c.db.HasTable(tableName) {
		c.ckMu.Unlock()
		return nil, fmt.Errorf("cvd: %s: table %q already exists", c.name, tableName)
	}
	c.reserved[tableName] = struct{}{}
	c.ckMu.Unlock()

	out, err := c.materialize(versions, tableName)

	c.ckMu.Lock()
	delete(c.reserved, tableName)
	if err == nil && c.dropped {
		// Drop ran between materialize releasing the shared lock and here:
		// registering the staging table now would leak it past the teardown.
		err = fmt.Errorf("cvd: %s: CVD has been dropped", c.name)
	}
	if err == nil {
		c.db.AttachTable(out)
		c.checkouts[tableName] = checkoutInfo{parents: append([]vgraph.VersionID(nil), versions...), at: c.clock()}
	}
	c.ckMu.Unlock()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// materialize produces the checkout table under the shared lock.
func (c *CVD) materialize(versions []vgraph.VersionID, tableName string) (*relstore.Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	// Drop tears the model's tables down under the exclusive lock and sets
	// dropped before releasing it, so a checkout that got past Checkout's own
	// test and then waited for that lock must look again.
	c.ckMu.Lock()
	dropped := c.dropped
	c.ckMu.Unlock()
	if dropped {
		return nil, fmt.Errorf("cvd: %s: CVD has been dropped", c.name)
	}
	for _, v := range versions {
		if c.graph.Node(v) == nil {
			return nil, fmt.Errorf("cvd: %s: unknown version %d", c.name, v)
		}
	}
	if len(versions) == 1 {
		return c.model.Checkout(versions[0], tableName)
	}
	return c.checkoutMerged(versions, tableName)
}

// checkoutMerged materializes multiple versions with primary-key precedence.
// The per-version materializations — each touching exactly one partition
// under partitioned storage — run in parallel on the CVD's worker pool; the
// precedence merge itself stays sequential in version order so the result is
// identical to the single-threaded path.
func (c *CVD) checkoutMerged(versions []vgraph.VersionID, tableName string) (*relstore.Table, error) {
	tmps, err := parallel.MapErr(c.workers, len(versions), func(i int) (*relstore.Table, error) {
		return c.model.Checkout(versions[i], fmt.Sprintf("%s_tmp%d", tableName, i))
	})
	if err != nil {
		return nil, err
	}
	out := relstore.NewTable(tableName, dataSchemaWithRID(c.schema))
	pk := c.schema.PrimaryKeyIndexes()
	seenPK := make(map[string]struct{})
	seenRID := make(map[int64]struct{})
	for _, t := range tmps {
		// Select the surviving positions of this version's staging table with
		// cell reads only, then append them column-wise in one batch.
		keep := make(relstore.Selection, 0, t.Len())
		for i := 0; i < t.Len(); i++ {
			rid := t.IntAt(i, 0) // checkout tables carry rid first
			if _, dup := seenRID[rid]; dup {
				continue
			}
			if len(pk) > 0 {
				var b strings.Builder
				for _, j := range pk {
					// +1 because checkout rows carry rid first.
					b.WriteString(t.StringAt(i, j+1))
					b.WriteByte('\x1f')
				}
				k := b.String()
				if _, dup := seenPK[k]; dup {
					continue
				}
				seenPK[k] = struct{}{}
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

// CommitTable commits a previously checked-out staging table as a new
// version; the version's parents are the versions the table was checked out
// from. The staging table is dropped afterwards.
func (c *CVD) CommitTable(tableName, msg, author string) (vgraph.VersionID, error) {
	// Claim the checkout entry atomically: of two concurrent CommitTable
	// calls for the same staging table, exactly one proceeds (the loser sees
	// the entry gone). On failure the claim is restored so the caller can
	// retry or discard.
	c.ckMu.Lock()
	info, ok := c.checkouts[tableName]
	if ok {
		delete(c.checkouts, tableName)
	}
	c.ckMu.Unlock()
	if !ok {
		return 0, fmt.Errorf("cvd: %s: table %q was not produced by checkout", c.name, tableName)
	}
	restore := func() {
		c.ckMu.Lock()
		c.checkouts[tableName] = info
		c.ckMu.Unlock()
	}
	t, ok := c.db.Table(tableName)
	if !ok {
		restore()
		return 0, fmt.Errorf("cvd: %s: staging table %q has been dropped", c.name, tableName)
	}
	// Strip the rid column (users may have added rows without rids).
	dataCols := make([]string, 0, len(t.Schema.Columns))
	for _, col := range t.Schema.Columns {
		if col.Name != ridColumn {
			dataCols = append(dataCols, col.Name)
		}
	}
	proj, err := t.Project(tableName+"_commitproj", dataCols...)
	if err != nil {
		restore()
		return 0, err
	}
	v, err := c.Commit(info.parents, proj.Rows(), proj.Schema, msg, author)
	if err != nil {
		if v != 0 {
			// The commit was applied in memory but journaling it failed
			// (Commit's partial success). The staging table is consumed —
			// restoring the claim would let a retry commit the same rows as
			// a duplicate version.
			c.db.DropTable(tableName)
			return v, err
		}
		restore()
		return 0, err
	}
	c.db.DropTable(tableName)
	return v, nil
}

// CommitCSV commits a CSV stream (with header) as a new version derived from
// parents, coercing values through schema (the `commit -f -s` path).
func (c *CVD) CommitCSV(parents []vgraph.VersionID, r io.Reader, schema relstore.Schema, msg, author string) (vgraph.VersionID, error) {
	t, err := relstore.ReadCSV(r, c.name+"_csv_commit", schema)
	if err != nil {
		return 0, err
	}
	return c.Commit(parents, t.Rows(), schema, msg, author)
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
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.graph.Node(a) == nil || c.graph.Node(b) == nil {
		return DiffResult{}, fmt.Errorf("cvd: %s: unknown version in diff(%d, %d)", c.name, a, b)
	}
	sa, sb := c.bip.RecordSet(a), c.bip.RecordSet(b)
	return DiffResult{
		OnlyInA: vgraph.RecordIDs(recset.AndNot(sa, sb)),
		OnlyInB: vgraph.RecordIDs(recset.AndNot(sb, sa)),
	}, nil
}
