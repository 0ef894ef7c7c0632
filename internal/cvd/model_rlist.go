package cvd

import (
	"fmt"
	"slices"

	"repro/internal/parallel"
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
// (Chapter 5): the data table may be split into several partition tables, each
// holding all records of the versions assigned to it, so a checkout touches
// exactly one partition.
type rlistModel struct {
	c *CVD // whose catalog is the data table and whose sets are the versioning table

	// Partitioned state. When parts is nil the model is unpartitioned and all
	// records live in the data table. When non-nil, partition k's records live
	// in parts[k], registered in the database, and partOf holds version v's
	// partition at v-1 (-1: none).
	parts  []*relstore.Table
	partOf []int
	// views holds a view (relstore.Table.View) of each partition table as of
	// its last change: what the CVD publishes for checkouts to read. views and
	// partOf are shared with the published states, so an entry of either is
	// only ever changed in a copy; partOf is appended to in place.
	views []*relstore.Table

	// resident caches, per partition, the compressed set of rids physically
	// present in the partition table. Commits and migrations consult it
	// instead of re-scanning the partition table to learn what is already
	// there (the pre-recset addVersionToPartition scanned the whole table on
	// every commit). Invariant: resident[k] holds exactly the rids of
	// parts[k]'s rows.
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

func (m *rlistModel) partTabName(k int) string { return fmt.Sprintf("%s_part%d", m.c.name, k) }

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
	if m.parts != nil {
		k := 0
		if len(req.Parents) > 0 {
			if pk := m.partOf[req.Parents[0]-1]; pk >= 0 {
				k = pk
			}
		}
		return m.addVersionToPartition(req.Version, k, req.RIDs)
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
// join (Section 5.5.5). The join resolves to a selection vector over the data
// table, and the staging table views the data table's lanes through it: no
// cell is copied until the staging table's user writes a column. A data or
// partition table that holds a rid twice gives rows the unique rid index
// refuses, and so does the checkout.
func joinCheckout(data *relstore.Table, rlist *recset.Set, workers int, tableName string) (*relstore.Table, error) {
	out, err := relstore.JoinTableOnRIDs(data, ridColumn, rlist, workers, tableName)
	if err != nil {
		return nil, err
	}
	if err := out.BuildIndexOn(ridColumn); err != nil {
		return nil, err
	}
	return out, nil
}

func (m *rlistModel) StorageBytes() int64 {
	var n int64
	if m.parts == nil {
		n += m.c.catalog.StorageBytes()
	} else {
		for _, t := range m.parts {
			n += t.StorageBytes()
		}
	}
	return n + versioningTable{m}.StorageBytes()
}

// DataRecordCount returns Σ_k |R_k| in records (the storage cost S of
// Equation 5.1) under the current partitioning, or the data-table row count
// when unpartitioned.
func (m *rlistModel) DataRecordCount() int64 {
	if m.parts == nil {
		return int64(m.c.catalog.Len())
	}
	var n int64
	for _, t := range m.parts {
		n += int64(t.Len())
	}
	return n
}

// AlterSchema evolves the partition tables; the data table is the CVD's
// catalog, which the CVD has evolved already.
func (m *rlistModel) AlterSchema(newSchema relstore.Schema) error {
	for _, t := range m.parts {
		if err := alterTable(t, newSchema); err != nil {
			return err
		}
	}
	if m.parts != nil {
		m.viewAll()
	}
	return nil
}

func (m *rlistModel) Drop() {
	m.c.db.DropTable(m.c.catalog.Name)
	m.c.db.DropTable(m.versioningTabName())
	m.dropParts()
	m.parts, m.partOf, m.views, m.resident = nil, nil, nil, nil
}

// dropParts removes the partition tables from the database.
func (m *rlistModel) dropParts() {
	for _, t := range m.parts {
		m.c.db.DropTable(t.Name)
	}
}

// view re-views partition k, which just changed, in a copy of views.
func (m *rlistModel) view(k int) {
	views := make([]*relstore.Table, len(m.parts))
	copy(views, m.views)
	views[k] = m.parts[k].View()
	m.views = views
}

// viewAll views every partition table afresh.
func (m *rlistModel) viewAll() {
	m.views = make([]*relstore.Table, len(m.parts))
	for k, t := range m.parts {
		m.views[k] = t.View()
	}
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

// Partitioned reports whether partitioned storage is active.
func (m *rlistModel) Partitioned() bool { return m.parts != nil }

// PartitionOf returns the partition index of a version as last published (-1
// when unpartitioned or unknown).
func (m *rlistModel) PartitionOf(v vgraph.VersionID) int { return m.c.read().partition(v) }

// PartitionTableName returns the name of the backing table a version's
// checkout reads as last published: its partition table under partitioned
// storage, the shared data table otherwise ("" when the version has no
// assignment). The reference benchmark reads it to measure the records a
// checkout scans.
func (m *rlistModel) PartitionTableName(v vgraph.VersionID) string {
	st := m.c.read()
	if st.parts == nil {
		return m.c.catalog.Name
	}
	if k := st.partition(v); k >= 0 {
		return st.parts[k].Name
	}
	return ""
}

// PartitionSizes returns the number of records in each partition table.
func (m *rlistModel) PartitionSizes() []int64 {
	out := make([]int64, len(m.parts))
	for i, t := range m.parts {
		out[i] = int64(t.Len())
	}
	return out
}

// ApplyPartitioning reorganizes the data table into one partition table per
// group of the supplied partitioning, rebuilding everything from scratch
// (the "naive" migration path). Each partition table receives all records of
// all versions assigned to it; records shared across partitions are
// duplicated (Section 5.1). It publishes the partitioning, so a checkout
// reads its partition's table from then on.
func (m *rlistModel) ApplyPartitioning(p vgraph.Partitioning) error {
	for v := range p.Assignment {
		if _, err := m.setOf(v); err != nil {
			return err
		}
	}
	defer m.c.publish()
	m.dropParts()
	// Create the (empty) partition tables sequentially, then fill them in
	// parallel: each fill reads the shared data table and writes only its own
	// partition table (and resident-set slot), so the builds are independent.
	groups := p.Groups()
	m.parts = make([]*relstore.Table, len(groups))
	m.resident = make([]*recset.Set, len(groups))
	m.partOf = slices.Repeat([]int{-1}, len(m.c.sets))
	for k, versions := range groups {
		m.parts[k] = m.newPart(m.partTabName(k))
		for _, v := range versions {
			m.partOf[v-1] = k
		}
	}
	err := parallel.ForEachErr(m.c.workers, len(groups), func(k int) error {
		return m.fillPartition(k, groups[k])
	})
	m.viewAll()
	return err
}

// newPart registers an empty partition table under name, in place of any
// table of that name.
func (m *rlistModel) newPart(name string) *relstore.Table {
	t := relstore.NewTable(name, dataSchemaWithRID(m.c.schema))
	m.c.db.AttachTable(t)
	return t
}

// fillPartition inserts into partition k all records belonging to any of
// versions, fetched from the unpartitioned data table with a compressed-set
// probe and appended column-wise (no row materialization). The union set
// becomes the partition's resident-rid cache.
func (m *rlistModel) fillPartition(k int, versions []vgraph.VersionID) error {
	need := recset.New()
	for _, v := range versions {
		rs, err := m.setOf(v)
		if err != nil {
			return err
		}
		need.UnionWith(rs)
	}
	data := m.c.catalog
	sel, err := data.SelectRIDSet(ridColumn, need)
	if err != nil {
		return err
	}
	if err := m.parts[k].AppendFrom(data, sel); err != nil {
		return err
	}
	m.resident[k] = need
	return nil
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
// (typically produced by partition.PlanMigration). Partitions with
// FromPartition >= 0 are transformed in place by deleting records no longer
// needed and inserting missing ones; others are rebuilt from scratch. It
// publishes the new partitioning.
func (m *rlistModel) Migrate(p vgraph.Partitioning, plan []MigrationOp) (MigrationResult, error) {
	var res MigrationResult
	if m.parts == nil {
		// Nothing to reuse; fall back to a full rebuild.
		if err := m.ApplyPartitioning(p); err != nil {
			return res, err
		}
		res.PartitionsBuilt = p.NumPartitions
		for _, n := range m.PartitionSizes() {
			res.RecordsInserted += n
		}
		return res, nil
	}
	defer m.c.publish()
	newParts := make([]*relstore.Table, p.NumPartitions)
	newResident := make([]*recset.Set, p.NumPartitions)
	newAssign := slices.Repeat([]int{-1}, len(m.c.sets))

	for _, op := range plan {
		need := recset.New()
		for _, v := range op.Versions {
			rs, err := m.setOf(v)
			if err != nil {
				return res, err
			}
			need.UnionWith(rs)
			newAssign[v-1] = op.NewPartition
		}
		// Built under a temporary name beside the old partitions, and renamed
		// below once they are gone.
		t := m.newPart(fmt.Sprintf("%s_newpart%d", m.c.name, op.NewPartition))
		// missing starts as everything the new partition needs; records copied
		// over from the transformed old partition are subtracted below.
		missing := need
		if op.FromPartition >= 0 && op.FromPartition < len(m.parts) {
			// Transform: copy surviving records from the old partition, count
			// the dropped ones as deletions, then insert the missing records.
			// The old partition's resident set tells us what it holds without
			// re-deriving it from the scan.
			old := m.parts[op.FromPartition]
			oldResident := m.residentOf(op.FromPartition)
			sel, err := old.SelectRIDSet(ridColumn, need)
			if err != nil {
				return res, err
			}
			res.RecordsDeleted += int64(old.Len() - len(sel))
			if err := t.AppendFrom(old, sel); err != nil {
				return res, err
			}
			missing = recset.AndNot(need, oldResident)
		} else {
			res.PartitionsBuilt++
		}
		// Insert the records still missing, fetched from the master data table.
		sel, err := m.c.catalog.SelectRIDSet(ridColumn, missing)
		if err != nil {
			return res, err
		}
		if err := t.AppendFrom(m.c.catalog, sel); err != nil {
			return res, err
		}
		res.RecordsInserted += int64(len(sel))
		newParts[op.NewPartition] = t
		newResident[op.NewPartition] = need
	}
	// Swap in the new partitions under canonical names.
	m.dropParts()
	for k, t := range newParts {
		if t == nil {
			// The plan omitted this partition (no versions assigned); create
			// an empty table so indexes stay dense.
			newParts[k] = m.newPart(m.partTabName(k))
			newResident[k] = recset.New()
			continue
		}
		// Rename in place: re-registering the same table under its final name
		// avoids deep-cloning every row just to change the name.
		m.c.db.DropTable(t.Name)
		t.Name = m.partTabName(k)
		m.c.db.AttachTable(t)
	}
	m.parts, m.partOf, m.resident = newParts, newAssign, newResident
	m.viewAll()
	return res, nil
}

// residentOf returns partition k's resident-rid set, rebuilding it from a
// table scan if the cache is missing (defensive; the cache is maintained on
// every fill, migrate, and per-commit insert).
func (m *rlistModel) residentOf(k int) *recset.Set {
	if m.resident[k] != nil {
		return m.resident[k]
	}
	t := m.parts[k]
	ridIdx := t.Schema.ColumnIndex(ridColumn)
	rs := recset.New()
	for i := 0; i < t.Len(); i++ {
		rs.Add(t.IntAt(i, ridIdx))
	}
	t.Stats().AddSeqReads(int64(t.Len()))
	m.resident[k] = rs
	return rs
}

// OnlineAssign places a newly committed version into partition k and inserts
// the version's new records into that partition (the online maintenance rule
// of Section 5.4). If newPartition is true a fresh partition is created for
// the version instead. It publishes the placement.
func (m *rlistModel) OnlineAssign(v vgraph.VersionID, k int, newPartition bool, rids []vgraph.RecordID) (int, error) {
	if m.parts == nil {
		return -1, fmt.Errorf("cvd: %s: OnlineAssign requires partitioned storage", m.c.name)
	}
	if _, err := m.setOf(v); err != nil {
		return -1, err
	}
	defer m.c.publish()
	if newPartition {
		k = len(m.parts)
		m.parts = append(m.parts, m.newPart(m.partTabName(k)))
		m.resident = append(m.resident, recset.New())
	}
	if k < 0 || k >= len(m.parts) {
		return -1, fmt.Errorf("cvd: %s: partition %d out of range", m.c.name, k)
	}
	if err := m.addVersionToPartition(v, k, rids); err != nil {
		return -1, err
	}
	return k, nil
}

// addVersionToPartition ensures all records of the version exist in the
// partition table, records the assignment and re-views the partition.
// Membership of already-present records comes from the partition's
// resident-rid recset — O(|rlist|) bit probes per commit — and the records it
// lacks, the commit's new ones among them, are appended column-wise from the
// data table, where record r is row r-1.
func (m *rlistModel) addVersionToPartition(v vgraph.VersionID, k int, rids []vgraph.RecordID) error {
	t := m.parts[k]
	have := m.residentOf(k)
	var missing []vgraph.RecordID // ascending, as rids is
	for _, rid := range rids {
		if !have.Contains(int64(rid)) {
			missing = append(missing, rid)
		}
	}
	if len(missing) > 0 { // an append of nothing would still unshare t's columns
		if err := t.AppendFrom(m.c.catalog, positions(missing)); err != nil {
			return err
		}
	}
	for _, rid := range missing {
		have.Add(int64(rid))
	}
	m.assign(v, k)
	m.view(k)
	return nil
}
