package cvd

import (
	"fmt"
	"slices"

	"repro/internal/recset"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// rlistModel is the split-by-rlist data model (Approach 4.3): a shared data
// table keyed by rid plus a versioning table keyed by vid whose rlist lists the
// records in the version. The data table is the CVD's record catalog itself —
// the same table, so a record is stored once and a commit has nothing to add to
// it — which keeps record r at row r-1. The versioning table is the CVD's
// record sets: each rlist is the version's compressed record set, the very set
// the CVD holds, so a version's records are listed once; the
// database accounts for it under its table name (versioningTable). It is the
// model OrpheusDB adopts, and the only model that supports partitioned storage
// (Chapter 5). A partitioning is a plan, not a copy: it places each version in
// a partition k and keeps partition k's resident set, the records the paper's
// partition table k would hold. The storage cost S of Equation 5.1 and the
// |P_k| records a checkout of a version in k scans are charged from it, while
// the records stay once, in the data table, and every checkout reads its
// version's positions there.
type rlistModel struct {
	c *CVD // whose catalog is the data table and whose sets are the versioning table

	// The partitioning, nil when unpartitioned. partOf holds version v's
	// partition at v-1 (-1: none); it is shared with the published states, so
	// an entry is only ever changed in a copy, and it is appended to in place.
	// resident holds partition k's resident set at k: the records of every
	// version placed in k since the partitioning was applied, those of a
	// version online maintenance moved away included, so it is kept, not
	// derived. Only writers read it; the published states carry its sizes.
	partOf   []int
	resident []*recset.Set
}

func newRlistModel(c *CVD) *rlistModel { return &rlistModel{c: c} }

// rlistDataTabName names the data table of a split-by-rlist CVD.
func rlistDataTabName(cvdName string) string { return cvdName + "_data" }

func (m *rlistModel) Kind() ModelKind { return SplitByRlist }

func (m *rlistModel) versioningTabName() string { return m.c.name + "_versions" }

// versioningTable is the model's versioning table as the database accounts for
// it: what the two-column table (vid, rlist) it stands for is charged — 8 bytes
// for the vid, 8 plus 8 per element for the rlist array, 16 for the vid's index
// entry — so Figure 4.1's storage axis reads as if the rlists were arrays.
type versioningTable struct{ m *rlistModel }

func (t versioningTable) StorageBytes() int64 {
	n := int64(32 * len(t.m.c.sets))
	for _, s := range t.m.c.sets {
		n += 8 * s.Len()
	}
	return n
}

func (m *rlistModel) Init(req CommitRequest) error {
	db, data := m.c.db, m.c.catalog
	if db.HasTable(data.Name) {
		return fmt.Errorf("cvd: %s: table %q already exists", m.c.name, data.Name)
	}
	if db.HasTable(m.versioningTabName()) {
		return fmt.Errorf("cvd: %s: table %q already exists", m.c.name, m.versioningTabName())
	}
	db.AttachTable(data)
	db.AttachRelation(m.versioningTabName(), versioningTable{m})
	return m.AppendVersion(req)
}

// AppendVersion checks that the version follows the versioning table, to
// which the CVD appends its record set, req.Set, as its rlist; version ids are
// dense from 1 in commit order.
func (m *rlistModel) AppendVersion(req CommitRequest) error {
	if want := m.c.nextVersion(); req.Version != want {
		return fmt.Errorf("cvd: %s: version %d does not follow the versioning table's %d versions", m.c.name, req.Version, want-1)
	}
	// Under partitioning, new versions are routed by online maintenance
	// (OnlineAssign); until then they are placed with their first parent's
	// partition, or partition 0 if there is none.
	if m.resident != nil {
		k := 0
		if len(req.Parents) > 0 {
			if pk := m.partOf[req.Parents[0]-1]; pk >= 0 {
				k = pk
			}
		}
		m.place(req.Version, k, req.Set)
	}
	return nil
}

// RecordSet returns version v's rlist, which is the CVD's record set of v (nil
// when the versioning table has no version v). It is shared: read it, never
// mutate it.
func (m *rlistModel) RecordSet(v vgraph.VersionID) *recset.Set { return m.c.recordSet(v) }

// setOf is RecordSet for a version that must exist.
func (m *rlistModel) setOf(v vgraph.VersionID) (*recset.Set, error) {
	if s := m.RecordSet(v); s != nil {
		return s, nil
	}
	return nil, fmt.Errorf("cvd: %s: version %d not found", m.c.name, v)
}

// Checkout is the CVD's checkout of version v off its published state.
func (m *rlistModel) Checkout(v vgraph.VersionID, tableName string) (*relstore.Table, error) {
	st := m.c.read()
	if !st.has(v) {
		return nil, fmt.Errorf("cvd: %s: version %d not found", m.c.name, v)
	}
	return m.c.checkoutOne(st, v, tableName)
}

// joinCheckout materializes the records of an rlist out of data with a hash
// join (Section 5.5.5), accounted as a scan of scanned rows (see
// relstore.JoinTableOnRIDs). The join resolves to a selection vector over the
// data table, and the staging table views the data table's lanes through it:
// no cell is copied until the staging table's user writes a column. The join
// hands the staging table back indexed on its rids; a data table that holds a
// rid twice gives rows the unique rid index refuses, and so does the checkout.
func joinCheckout(data *relstore.Table, rlist *recset.Set, scanned int, tableName string) (*relstore.Table, error) {
	return relstore.JoinTableOnRIDs(data, ridColumn, rlist, scanned, tableName)
}

// StorageBytes is the data table and the versioning table, or, under a
// partitioning, what the paper's partition tables would take in the data
// table's place: each partition's resident records as the data table stores
// them, each with its rid index entry.
func (m *rlistModel) StorageBytes() int64 {
	n := versioningTable{m}.StorageBytes()
	if m.resident == nil {
		return n + m.c.catalog.StorageBytes()
	}
	for _, rs := range m.resident {
		part := m.c.catalog.GatherInto("", positions(vgraph.RecordIDs(rs)))
		_ = part.BuildIndexOn(ridColumn) // of ascending rids, which it never refuses
		n += part.StorageBytes()
	}
	return n
}

// DataRecordCount returns Σ_k |R_k| in records (the storage cost S of
// Equation 5.1) under the partitioning last published, or the data-table row
// count when unpartitioned.
func (m *rlistModel) DataRecordCount() int64 {
	st := m.c.read()
	if st.partSizes == nil {
		return int64(st.numRecords())
	}
	var n int64
	for _, size := range st.partSizes {
		n += size
	}
	return n
}

// AlterSchema has nothing to evolve: the data table is the CVD's catalog,
// which the CVD has evolved already.
func (m *rlistModel) AlterSchema(relstore.Schema) error { return nil }

func (m *rlistModel) Drop() {
	m.c.db.DropTable(m.c.catalog.Name)
	m.c.db.DropTable(m.versioningTabName())
	m.partOf, m.resident = nil, nil
}

// sizes returns each partition's size, |resident_k| at k; nil unpartitioned.
func (m *rlistModel) sizes() []int64 {
	if m.resident == nil {
		return nil
	}
	out := make([]int64, len(m.resident))
	for k, rs := range m.resident {
		out[k] = rs.Len()
	}
	return out
}

// assign places version v in partition k: a version past partOf's end is
// appended, any other is changed in a copy.
func (m *rlistModel) assign(v vgraph.VersionID, k int) {
	i := int(v) - 1
	if i < len(m.partOf) {
		m.partOf = slices.Clone(m.partOf)
	}
	for len(m.partOf) <= i {
		m.partOf = append(m.partOf, -1)
	}
	m.partOf[i] = k
}

// place assigns version v to partition k, whose resident set takes in the
// version's records, set.
func (m *rlistModel) place(v vgraph.VersionID, k int, set *recset.Set) {
	m.resident[k].UnionWith(set)
	m.assign(v, k)
}

// Partitioned reports whether partitioned storage is active as last published.
func (m *rlistModel) Partitioned() bool { return m.c.read().partSizes != nil }

// PartitionOf returns the partition index of a version as last published (-1
// when unpartitioned or unknown).
func (m *rlistModel) PartitionOf(v vgraph.VersionID) int { return m.c.read().partition(v) }

// PartitionTableName returns the name of the table a version's checkout
// reads: the shared data table, partitioned or not, since a partitioning
// copies no record. The reference benchmark reads it to measure the records a
// checkout scans.
func (m *rlistModel) PartitionTableName(vgraph.VersionID) string { return rlistDataTabName(m.c.name) }

// PartitionSizes returns the number of records in each partition as last
// published (nil when unpartitioned).
func (m *rlistModel) PartitionSizes() []int64 { return slices.Clone(m.c.read().partSizes) }

// ApplyPartitioning replaces the partitioning with the supplied one, planned
// from scratch (the "naive" migration path): each partition's resident set is
// the union of the record sets of the versions assigned to it, so records
// shared across partitions count once in each (Section 5.1). It publishes the
// partitioning, so a checkout is charged its partition's scan from then on. A
// partitioning that does not place every version in one of its partitions is
// refused, and changes nothing.
func (m *rlistModel) ApplyPartitioning(p vgraph.Partitioning) error {
	partOf := slices.Repeat([]int{-1}, len(m.c.sets))
	for v, k := range p.Assignment {
		if err := m.placeIn(partOf, v, k, p.NumPartitions); err != nil {
			return err
		}
	}
	if err := m.placesAll(partOf); err != nil {
		return err
	}
	m.partOf = partOf
	m.resident = m.unions(m.partOf, p.NumPartitions)
	m.c.publish()
	return nil
}

// placeIn records in partOf that a plan of n partitions places version v in
// partition k, refusing an unknown version, a partition out of range and a
// version placed in two partitions.
func (m *rlistModel) placeIn(partOf []int, v vgraph.VersionID, k, n int) error {
	if _, err := m.setOf(v); err != nil {
		return err
	}
	if k < 0 || k >= n {
		return fmt.Errorf("cvd: %s: version %d is placed in partition %d of a partitioning of %d", m.c.name, v, k, n)
	}
	if was := partOf[v-1]; was >= 0 && was != k {
		return fmt.Errorf("cvd: %s: version %d is placed in partitions %d and %d", m.c.name, v, was, k)
	}
	partOf[v-1] = k
	return nil
}

// placesAll refuses a plan that leaves a version in no partition.
func (m *rlistModel) placesAll(partOf []int) error {
	if i := slices.Index(partOf, -1); i >= 0 {
		return fmt.Errorf("cvd: %s: the partitioning leaves version %d in no partition", m.c.name, i+1)
	}
	return nil
}

// unions returns, for each of n partitions, the union of the record sets of
// the versions partOf places in it.
func (m *rlistModel) unions(partOf []int, n int) []*recset.Set {
	out := make([]*recset.Set, n)
	for k := range out {
		out[k] = recset.New()
	}
	for i, k := range partOf {
		if k >= 0 {
			out[k].UnionWith(m.c.sets[i])
		}
	}
	return out
}

// ResidentSets returns a copy of each partition's resident set at k (nil when
// unpartitioned). The sets are a writer's: the caller holds the CVD's mutex
// (WithExclusive).
func (m *rlistModel) ResidentSets() []*recset.Set {
	if m.resident == nil {
		return nil
	}
	out := make([]*recset.Set, len(m.resident))
	for k, rs := range m.resident {
		out[k] = rs.Clone()
	}
	return out
}

// MigrationOp describes one partition's migration action when moving to a
// new partitioning scheme (Section 5.4): either rebuild the partition from
// scratch or transform an existing partition by deleting and inserting
// records.
type MigrationOp struct {
	// NewPartition is the index of the partition in the new scheme.
	NewPartition int
	// FromPartition is the index of the old partition to transform, or -1 to
	// build from scratch.
	FromPartition int
	// Versions are the versions assigned to the new partition.
	Versions []vgraph.VersionID
}

// MigrationResult reports the work performed while migrating.
type MigrationResult struct {
	RecordsInserted int64
	RecordsDeleted  int64
	PartitionsBuilt int
}

// Migrate applies a new partitioning using an explicit per-partition plan
// (typically produced by partition.PlanMigration). A partition with
// FromPartition >= 0 is transformed from that old partition: the records it
// no longer needs count as deleted, those it lacks as inserted. Any other is
// built from scratch, all its records inserted. It publishes the new
// partitioning; on an error it changes nothing.
func (m *rlistModel) Migrate(p vgraph.Partitioning, plan []MigrationOp) (MigrationResult, error) {
	var res MigrationResult
	if m.resident == nil {
		// Nothing to reuse; fall back to a full rebuild.
		if err := m.ApplyPartitioning(p); err != nil {
			return res, err
		}
		res.PartitionsBuilt = p.NumPartitions
		for _, rs := range m.resident {
			res.RecordsInserted += rs.Len()
		}
		return res, nil
	}
	partOf := slices.Repeat([]int{-1}, len(m.c.sets))
	for _, op := range plan {
		// An op that places no version is still read below.
		if op.NewPartition < 0 || op.NewPartition >= p.NumPartitions {
			return res, fmt.Errorf("cvd: %s: a migration op builds partition %d of a partitioning of %d", m.c.name, op.NewPartition, p.NumPartitions)
		}
		for _, v := range op.Versions {
			if err := m.placeIn(partOf, v, op.NewPartition, p.NumPartitions); err != nil {
				return res, err
			}
		}
	}
	if err := m.placesAll(partOf); err != nil {
		return res, err
	}
	resident := m.unions(partOf, p.NumPartitions)
	for _, op := range plan {
		need := resident[op.NewPartition]
		if op.FromPartition >= 0 && op.FromPartition < len(m.resident) {
			old := m.resident[op.FromPartition]
			kept := recset.AndLen(need, old)
			res.RecordsDeleted += old.Len() - kept
			res.RecordsInserted += need.Len() - kept
		} else {
			res.PartitionsBuilt++
			res.RecordsInserted += need.Len()
		}
	}
	m.partOf, m.resident = partOf, resident
	m.c.publish()
	return res, nil
}

// OnlineAssign places a newly committed version into partition k, whose
// resident set takes in the version's records (the online maintenance rule of
// Section 5.4). If newPartition is true a fresh partition is created for the
// version instead. It publishes the placement.
func (m *rlistModel) OnlineAssign(v vgraph.VersionID, k int, newPartition bool) (int, error) {
	if m.resident == nil {
		return -1, fmt.Errorf("cvd: %s: OnlineAssign requires partitioned storage", m.c.name)
	}
	set, err := m.setOf(v)
	if err != nil {
		return -1, err
	}
	if newPartition {
		k = len(m.resident)
		m.resident = append(m.resident, recset.New())
	}
	if k < 0 || k >= len(m.resident) {
		return -1, fmt.Errorf("cvd: %s: partition %d out of range", m.c.name, k)
	}
	m.place(v, k, set)
	m.c.publish()
	return k, nil
}
