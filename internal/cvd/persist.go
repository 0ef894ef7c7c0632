package cvd

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/recset"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// This file is the persistence boundary of a CVD: it exposes the complete
// logical state needed to serialize a CVD into a durable snapshot (package
// durable) and rebuilds a live CVD from that state plus the backing tables.
// The binary format lives entirely in package durable; cvd only decides WHAT
// constitutes the persistent state.

// Journal receives the logical redo log of a CVD: every successful commit is
// reported as its delta against its parents, so that what a write-ahead log
// stores — and what replaying it costs — is proportional to the commit, not to
// the version.
//
//   - versions is the new version's id followed by its parents, in the order
//     the commit named them.
//   - deltaSchema is the rid column followed by the CVD's data schema as the
//     commit left it (so it carries any schema evolution), with the data
//     schema's primary key.
//   - delta is the commit's delta table: one full-width row (rid, then the data
//     values in deltaSchema order) per record the version adds, in ascending
//     rid order, and one rid-only tombstone row per record of the parents'
//     union that the version does not keep. A version's records are therefore
//     ∪parents − tombstones + added.
//
// ReplayCommit takes the same arguments and rebuilds the version from them.
// Implementations are called while the CVD's mutex is held, after
// the commit has been applied in memory; they must not call back into the
// CVD, and must not modify delta's rows.
type Journal interface {
	LogCommit(cvdName string, versions []vgraph.VersionID, delta []relstore.Row, deltaSchema relstore.Schema, msg, author string, at time.Time) error
}

// SetJournal attaches (or detaches, with nil) the commit journal. The engine
// wires this up when the CVD belongs to a durable data directory; replayed
// commits run before the journal is attached so they are not re-logged.
// Attaching (or detaching) clears any journal poison left by a failed
// append: the caller is asserting that the journal's backing log agrees with
// the in-memory state again (a checkpoint folded the diverged state into the
// snapshot, or the store was reopened).
func (c *CVD) SetJournal(j Journal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = j
	c.journalErr = nil
}

// LockExclusive acquires the CVD's mutex without running a callback, for the
// snapshot capture that must fence writers on several CVDs at once (and, for
// a checkpoint, swap journals while fenced). Pair with UnlockExclusive;
// prefer WithExclusive everywhere else.
func (c *CVD) LockExclusive() { c.mu.Lock() }

// UnlockExclusive releases the lock taken by LockExclusive.
func (c *CVD) UnlockExclusive() { c.mu.Unlock() }

// SetJournalLocked is SetJournal for callers already holding the mutex
// (LockExclusive); like SetJournal it clears any journal poison.
func (c *CVD) SetJournalLocked(j Journal) {
	c.journal = j
	c.journalErr = nil
}

// JournalErr reports the sticky journal poison: non-nil after a commit was
// applied in memory but its journal append failed, until a checkpoint or
// journal swap clears it.
func (c *CVD) JournalErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.journalErr
}

// JournalLocked returns the attached journal and the sticky journal poison
// for a caller already holding the mutex (LockExclusive) — the checkpoint
// fence, which cannot call JournalErr without self-deadlocking.
func (c *CVD) JournalLocked() (Journal, error) {
	return c.journal, c.journalErr
}

// VersionRecordSet pairs a version with its compressed record set — its rlist,
// a row of split-by-rlist's versioning table.
type VersionRecordSet struct {
	Version vgraph.VersionID
	Set     *recset.Set
}

// PersistentState is the complete logical state of a split-by-rlist CVD —
// the only model that persists — minus its one backing table, the data table
// (DataTable), which is serialized separately, straight from its columnar
// lanes. The versioning table is RecordSets and the metadata table is Metas;
// checked-out staging tables are deliberately absent: they are transient
// working state. ExportState captures it frozen: it stays what it was when
// captured while the CVD goes on committing.
type PersistentState struct {
	Name    string
	Schema  relstore.Schema
	NextVID vgraph.VersionID
	NextRID vgraph.RecordID

	Graph *vgraph.Graph // version graph
	// RecordSets is the versioning table: one set per version 1 … NextVID-1,
	// in order (Restore checks), each the version's record set, which is its
	// rlist.
	RecordSets []VersionRecordSet
	Metas      []*VersionMeta // the metadata table: version metadata ordered by id
	Attrs      []Attribute    // attribute registry in registration order

	// The partitioning (both empty when unpartitioned): each assigned
	// version's partition, and partition k's strays at k, one per partition.
	// A partition's strays are the records its resident set holds beyond the
	// union of its versions' record sets: those online maintenance leaves
	// behind when it moves a version to another partition. Restore rebuilds
	// each resident set as that union plus the strays.
	PartitionOf map[vgraph.VersionID]int
	Strays      []*recset.Set
}

// DataTable names the CVD's data table, a table of the database: the record
// catalog Restore verifies.
func (st *PersistentState) DataTable() string { return rlistDataTabName(st.Name) }

// CheckPartitioning refuses a partitioning st cannot hold: an assignment of a
// version st does not have, or to a partition past its count, or strays
// holding a record id never handed out. The checkpoint decoder and Restore
// call it: the partitioning is input from disk.
func (st *PersistentState) CheckPartitioning() error {
	for v, k := range st.PartitionOf {
		if v < 1 || v >= st.NextVID || k < 0 || k >= len(st.Strays) {
			return fmt.Errorf("cvd: %s: version %d is placed in partition %d, where versions 1 to %d are in %d partitions", st.Name, v, k, st.NextVID-1, len(st.Strays))
		}
	}
	for k, rs := range st.Strays {
		if rs == nil {
			return fmt.Errorf("cvd: %s: partition %d has no set of strays", st.Name, k)
		}
		lo, _ := rs.Min()
		hi, _ := rs.Max()
		if rs.Len() > 0 && (lo < 1 || hi >= int64(st.NextRID)) {
			return fmt.Errorf("cvd: %s: partition %d holds record ids %d to %d where ids 1 to %d were handed out", st.Name, k, lo, hi, st.NextRID-1)
		}
	}
	return nil
}

// ExportState captures the CVD's persistent state; a CVD of an in-memory model
// is refused (CheckDurable). The caller holds the mutex (LockExclusive) for
// the call only: the capture stays valid after it is released. The mutable
// structures (version graph, version metadata) are copied, and each
// partition's strays computed afresh; committed record sets, which are never
// mutated, are shared by pointer, so the capture is O(versions) extra memory,
// not O(dataset). The data table, which is the catalog, is for the caller to
// freeze (relstore.Table.SnapshotClone).
func (c *CVD) ExportState() (*PersistentState, error) {
	if err := CheckDurable(c.name, c.kind); err != nil {
		return nil, err
	}
	m := c.model.(*rlistModel)
	st := &PersistentState{
		Name:    c.name,
		Schema:  c.schema.Clone(),
		NextVID: c.nextVersion(),
		NextRID: c.nextRID,
		Graph:   c.graph.Clone(),
		Attrs:   c.attrs.All(),
	}
	st.Metas = make([]*VersionMeta, len(c.meta.metas))
	for i, vm := range c.meta.metas {
		cp := *vm
		st.Metas[i] = &cp
	}
	st.RecordSets = make([]VersionRecordSet, len(c.sets))
	for i, s := range c.sets {
		st.RecordSets[i] = VersionRecordSet{Version: vgraph.VersionID(i + 1), Set: s}
	}
	if m.resident != nil {
		st.PartitionOf = make(map[vgraph.VersionID]int, len(m.partOf))
		for i, k := range m.partOf {
			if k >= 0 {
				st.PartitionOf[vgraph.VersionID(i+1)] = k
			}
		}
		versions := m.unions(m.partOf, len(m.resident))
		st.Strays = make([]*recset.Set, len(m.resident))
		for k, rs := range m.resident {
			st.Strays[k] = recset.AndNot(rs, versions[k])
		}
	}
	return st, nil
}

// Restore rebuilds a live split-by-rlist CVD from a persistent state. Its data
// table must already have been deserialized into db; Restore only wires the
// in-memory structures (graph, record sets, metadata, attribute registry,
// partitioning) back around it, the data table serving as the record catalog,
// and registers the metadata table. Each record set becomes the version's
// record set, which is its rlist. A state whose record catalog or
// versioning table is not the one it describes is refused, with an error that
// is ErrBadCatalog or ErrBadVersions (errors.Is). The restored CVD takes
// ownership of the state's pointers.
func Restore(db *relstore.Database, st *PersistentState) (*CVD, error) {
	catalog, ok := db.Table(st.DataTable())
	if !ok {
		return nil, refusal{fmt.Errorf("cvd: restore %s: data table %q missing from database", st.Name, st.DataTable()), ErrBadCatalog}
	}
	if err := verifyCatalog(st, catalog); err != nil {
		return nil, refusal{err, ErrBadCatalog}
	}
	if err := verifyVersions(st); err != nil {
		return nil, refusal{err, ErrBadVersions}
	}
	if err := st.CheckPartitioning(); err != nil {
		return nil, err
	}
	meta, err := newMetadataStore(db, st.Name, slices.Clone(st.Metas))
	if err != nil {
		return nil, err
	}
	c := &CVD{
		name:      st.Name,
		db:        db,
		kind:      SplitByRlist,
		schema:    st.Schema.Clone(),
		graph:     st.Graph,
		catalog:   catalog,
		meta:      meta,
		attrs:     restoreAttributeRegistry(st.Attrs),
		sets:      make([]*recset.Set, len(st.RecordSets)),
		nextRID:   st.NextRID,
		checkouts: make(map[string]checkoutInfo),
		reserved:  make(map[string]struct{}),
		workers:   1,
		clock:     time.Now,
	}
	for i, vs := range st.RecordSets {
		c.sets[i] = vs.Set
	}
	restoreModel(c, st)
	c.publish()
	return c, nil
}

// ErrBadCatalog and ErrBadVersions class Restore's refusals (errors.Is): the
// state's record catalog, or its versioning table, is not the one its head
// describes. The refusal's sentence is its own; the class adds nothing to it.
var (
	ErrBadCatalog  = errors.New("cvd: the record catalog is not the one the CVD head describes")
	ErrBadVersions = errors.New("cvd: the versioning table is not the history the CVD head describes")
)

// refusal is one of Restore's sentences, classed under ErrBadCatalog or
// ErrBadVersions.
type refusal struct {
	error
	class error
}

func (r refusal) Is(target error) bool { return target == r.class }

// verifyCatalog checks that catalog is the record catalog st describes: the
// rid column followed by st's data schema, and dense — one row per record id
// handed out so far, row r-1 carrying rid r, which is what lets a lookup be an
// index.
func verifyCatalog(st *PersistentState, catalog *relstore.Table) error {
	// Spelled out rather than compared with dataSchemaWithRID(st.Schema), which
	// panics on a schema that cannot take a rid column: st may be anything a
	// checkpoint decoded to.
	if cols := catalog.Schema.Columns; len(cols) != len(st.Schema.Columns)+1 ||
		cols[0] != (relstore.Column{Name: ridColumn, Type: relstore.TypeInt}) || !slices.Equal(cols[1:], st.Schema.Columns) ||
		!slices.Equal(catalog.Schema.PrimaryKey, []string{ridColumn}) {
		return fmt.Errorf("cvd: %s: record catalog %s has schema (%s), want the %s column, its key, then (%s)", st.Name, catalog.Name, catalog.Schema, ridColumn, st.Schema)
	}
	if n := catalog.Len(); n != int(st.NextRID)-1 {
		return fmt.Errorf("cvd: %s: record catalog %s holds %d records where record ids 1 to %d were handed out", st.Name, catalog.Name, n, st.NextRID-1)
	}
	for row := 0; row < catalog.Len(); row++ {
		if rid := catalog.At(row, 0); rid.Type != relstore.TypeInt || rid.I != int64(row)+1 {
			return fmt.Errorf("cvd: %s: row %d of record catalog %s carries record id %s, want %d", st.Name, row, catalog.Name, rid.AsString(), row+1)
		}
	}
	return nil
}

// verifyVersions checks that st's versioning table is the version history its
// head describes: one record set per version 1 … NextVID-1, in order, each as
// large as its graph node and its metadata say the version is, holding only
// record ids handed out so far, and each version's parents older than it.
func verifyVersions(st *PersistentState) error {
	if want := int(st.NextVID) - 1; len(st.RecordSets) != want {
		return fmt.Errorf("cvd: %s: the versioning table holds %d versions where version ids 1 to %d were handed out", st.Name, len(st.RecordSets), want)
	}
	if len(st.Metas) != len(st.RecordSets) {
		return fmt.Errorf("cvd: %s: %d versions carry metadata, the versioning table holds %d", st.Name, len(st.Metas), len(st.RecordSets))
	}
	for i, vs := range st.RecordSets {
		v := vgraph.VersionID(i + 1)
		if vs.Version != v || vs.Set == nil {
			return fmt.Errorf("cvd: %s: row %d of the versioning table is version %d, want %d", st.Name, i, vs.Version, v)
		}
		n := vs.Set.Len()
		node, meta := st.Graph.Node(v), st.Metas[i]
		if node == nil || meta.ID != v {
			return fmt.Errorf("cvd: %s: version %d of the versioning table has no node in the version graph or no metadata", st.Name, v)
		}
		if node.NumRecords != n || meta.NumRecords != n {
			return fmt.Errorf("cvd: %s: version %d lists %d records in the versioning table, %d in the version graph and %d in its metadata", st.Name, v, n, node.NumRecords, meta.NumRecords)
		}
		for _, p := range meta.Parents {
			if p < 1 || p >= v {
				return fmt.Errorf("cvd: %s: version %d names parent %d, which is not an older version", st.Name, v, p)
			}
		}
		lo, _ := vs.Set.Min()
		hi, _ := vs.Set.Max()
		if n > 0 && (lo < 1 || hi >= int64(st.NextRID)) {
			return fmt.Errorf("cvd: %s: version %d lists record ids %d to %d where ids 1 to %d were handed out", st.Name, v, lo, hi, st.NextRID-1)
		}
	}
	return nil
}

// restoreAttributeRegistry rebuilds the registry from its persisted rows.
// Attribute ids are assigned densely from 1, so the next id is len+1.
func restoreAttributeRegistry(attrs []Attribute) *AttributeRegistry {
	r := NewAttributeRegistry()
	for i, a := range attrs {
		r.byID[a.ID] = i
		if a.ID >= r.nextID {
			r.nextID = a.ID + 1
		}
	}
	r.attrs = append(r.attrs, attrs...)
	return r
}

// restoreModel rebuilds split-by-rlist around the already deserialized
// tables: the versioning table is c's record sets, and the partitioning is
// st's, which CheckPartitioning has passed.
func restoreModel(c *CVD, st *PersistentState) {
	m := newRlistModel(c)
	c.model = m
	c.db.AttachRelation(m.versioningTabName(), versioningTable{m})
	if len(st.Strays) == 0 {
		return
	}
	m.partOf = slices.Repeat([]int{-1}, len(c.sets))
	for v, k := range st.PartitionOf {
		m.partOf[v-1] = k
	}
	m.resident = m.unions(m.partOf, len(st.Strays))
	for k, rs := range st.Strays {
		m.resident[k].UnionWith(rs)
	}
}
