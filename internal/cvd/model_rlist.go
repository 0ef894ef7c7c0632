package cvd

import (
	"fmt"
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/recset"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// rlistModel is the split-by-rlist data model (Approach 4.3): a shared data
// table keyed by rid plus a versioning table keyed by vid whose rlist lists the
// records in the version. The data table is the CVD's record catalog itself —
// the same table, so a record is stored once and a commit has nothing to add to
// it — which keeps record r at row r-1. The versioning table is versions: each
// rlist is the version's compressed record set, the very set the bipartite
// graph holds, so a version's records are listed once; the database accounts
// for it under its table name (versioningTable). It is the model OrpheusDB
// adopts, and the only model that supports partitioned storage (Chapter 5):
// the data table may be split into several partition tables, each holding all
// records of the versions assigned to it, so a checkout touches exactly one
// partition.
type rlistModel struct {
	db     *relstore.Database
	name   string
	schema relstore.Schema // data schema without rid
	data   *relstore.Table // the CVD's record catalog, registered in db under its name (rlistDataTabName)

	// versions is the versioning table: version v's rlist at index v-1.
	// Versions are only ever appended and a set is never mutated, so an entry
	// below the length a reader captured stays what it was (see publish).
	versions []*recset.Set

	// Partitioned state. When partitions is nil the model is unpartitioned
	// and all records live in the single data table. When non-nil,
	// partition k's records live in table partTabName(k) and partitionOf
	// maps each version to its partition.
	partitions  []string // partition table names
	partitionOf map[vgraph.VersionID]int

	// resident caches, per partition, the compressed set of rids physically
	// present in the partition table. Commits and migrations consult it
	// instead of re-scanning the partition table to learn what is already
	// there (the pre-recset addVersionToPartition scanned the whole table on
	// every commit). Invariant: resident[k] holds exactly the rids of
	// partitions[k]'s rows.
	resident []*recset.Set

	// workers bounds intra-operation parallelism: checkout scans are chunked
	// and partition builds fan out across this many goroutines when > 1.
	workers int

	// read is what checkoutPublished reads, without the CVD's lock. Every
	// method that changes what a checkout reads ends with publish.
	read atomic.Pointer[rlistRead]
}

// rlistRead is an unpartitioned model as of its last change: a view
// (relstore.Table.View) of the data table and the versioning table's slice
// header, both of which commits only append to.
type rlistRead struct {
	data     *relstore.Table
	versions []*recset.Set
	workers  int
}

func newRlistModel(db *relstore.Database, name string, schema relstore.Schema, catalog *relstore.Table) *rlistModel {
	return &rlistModel{
		db:     db,
		name:   name,
		schema: schema.Clone(),
		data:   catalog,
	}
}

// rlistDataTabName names the data table of a split-by-rlist CVD.
func rlistDataTabName(cvdName string) string { return cvdName + "_data" }

func (m *rlistModel) Kind() ModelKind { return SplitByRlist }

// SetWorkers bounds the intra-operation parallelism of checkout scans and
// partition builds; 0 or 1 keeps them single-threaded.
func (m *rlistModel) SetWorkers(n int) {
	if n <= 0 {
		n = 1
	}
	m.workers = n
	m.publish()
}

func (m *rlistModel) versioningTabName() string { return m.name + "_versions" }

// versioningTable is the model's versioning table as the database accounts for
// it: what the two-column table (vid, rlist) it stands for is charged — 8 bytes
// for the vid, 8 plus 8 per element for the rlist array, 16 for the vid's index
// entry — so Figure 4.1's storage axis reads as if the rlists were arrays.
type versioningTable struct{ m *rlistModel }

func (t versioningTable) StorageBytes() int64 {
	n := int64(32 * len(t.m.versions))
	for _, s := range t.m.versions {
		n += 8 * s.Len()
	}
	return n
}

func (m *rlistModel) partTabName(k int) string { return fmt.Sprintf("%s_part%d", m.name, k) }

func (m *rlistModel) Init(req CommitRequest) error {
	if m.db.HasTable(m.data.Name) {
		return fmt.Errorf("cvd: %s: table %q already exists", m.name, m.data.Name)
	}
	if m.db.HasTable(m.versioningTabName()) {
		return fmt.Errorf("cvd: %s: table %q already exists", m.name, m.versioningTabName())
	}
	m.db.AttachTable(m.data)
	m.db.AttachRelation(m.versioningTabName(), versioningTable{m})
	return m.AppendVersion(req)
}

// AppendVersion appends the version's record set, req.Set, to the versioning
// table as its rlist; version ids are dense from 1 in commit order.
func (m *rlistModel) AppendVersion(req CommitRequest) error {
	if want := vgraph.VersionID(len(m.versions) + 1); req.Version != want {
		return fmt.Errorf("cvd: %s: version %d does not follow the versioning table's %d versions", m.name, req.Version, len(m.versions))
	}
	// Under partitioning, new versions are routed by online maintenance
	// (OnlineAssign); until then they are placed with their first parent's
	// partition, or partition 0 if there is none.
	if m.partitions != nil {
		k := 0
		if len(req.Parents) > 0 {
			if pk, ok := m.partitionOf[req.Parents[0]]; ok {
				k = pk
			}
		}
		if err := m.addVersionToPartition(req.Version, k, req.RIDs); err != nil {
			return err
		}
	}
	m.versions = append(m.versions, req.Set)
	m.publish()
	return nil
}

// RecordSet returns version v's rlist, which is the bipartite graph's record
// set of v (nil when the versioning table has no version v). It is shared:
// read it, never mutate it.
func (m *rlistModel) RecordSet(v vgraph.VersionID) *recset.Set {
	if v < 1 || int(v) > len(m.versions) {
		return nil
	}
	return m.versions[v-1]
}

// setOf is RecordSet for a version that must exist.
func (m *rlistModel) setOf(v vgraph.VersionID) (*recset.Set, error) {
	if s := m.RecordSet(v); s != nil {
		return s, nil
	}
	return nil, fmt.Errorf("cvd: %s: version %d not found", m.name, v)
}

func (m *rlistModel) Checkout(v vgraph.VersionID, tableName string) (*relstore.Table, error) {
	rlist, err := m.setOf(v)
	if err != nil {
		return nil, err
	}
	data := m.data
	if m.partitions != nil {
		k, ok := m.partitionOf[v]
		if !ok {
			return nil, fmt.Errorf("cvd: %s: version %d has no partition assignment", m.name, v)
		}
		data = m.db.MustTable(m.partitions[k])
	}
	return joinCheckout(data, rlist, m.workers, tableName)
}

// joinCheckout materializes the records of an rlist out of data with a hash
// join (Section 5.5.5). The join resolves to a selection vector over the data
// table and the staging table is gathered column-wise — sharing the column
// backing outright (copy-on-write) when the version covers the whole backing
// table.
func joinCheckout(data *relstore.Table, rlist *recset.Set, workers int, tableName string) (*relstore.Table, error) {
	out, err := relstore.JoinTableOnRIDs(data, ridColumn, rlist, workers, tableName)
	if err != nil {
		return nil, err
	}
	_ = out.BuildIndexOn(ridColumn)
	return out, nil
}

// publish replaces what checkoutPublished reads with the model's current
// state, or with nothing under partitioning, where a checkout reads its
// partition's table. The caller holds the CVD's exclusive lock.
func (m *rlistModel) publish() {
	if len(m.versions) == 0 || m.partitions != nil {
		m.read.Store(nil)
		return
	}
	m.read.Store(&rlistRead{data: m.data.View(), versions: m.versions, workers: m.workers})
}

// checkoutPublished is Checkout for a caller that does not hold the CVD's
// lock: it reads what was last published, so it neither waits for a commit in
// flight nor makes one wait. ok is false when that does not hold the version
// and the caller has to take the lock.
func (m *rlistModel) checkoutPublished(v vgraph.VersionID, tableName string) (out *relstore.Table, ok bool) {
	rd := m.read.Load()
	if rd == nil || v < 1 || int(v) > len(rd.versions) {
		return nil, false
	}
	out, err := joinCheckout(rd.data, rd.versions[v-1], rd.workers, tableName)
	return out, err == nil // an error is the locked path's to report
}

func (m *rlistModel) StorageBytes() int64 {
	var n int64
	if m.partitions == nil {
		n += m.data.StorageBytes()
	} else {
		for _, p := range m.partitions {
			n += m.db.MustTable(p).StorageBytes()
		}
	}
	return n + versioningTable{m}.StorageBytes()
}

// DataRecordCount returns Σ_k |R_k| in records (the storage cost S of
// Equation 5.1) under the current partitioning, or the data-table row count
// when unpartitioned.
func (m *rlistModel) DataRecordCount() int64 {
	if m.partitions == nil {
		return int64(m.data.Len())
	}
	var n int64
	for _, p := range m.partitions {
		n += int64(m.db.MustTable(p).Len())
	}
	return n
}

// AlterSchema evolves the partition tables; the data table is the CVD's
// catalog, which the CVD has evolved already.
func (m *rlistModel) AlterSchema(newSchema relstore.Schema) error {
	for _, p := range m.partitions {
		if err := alterTable(m.db.MustTable(p), newSchema); err != nil {
			return err
		}
	}
	m.schema = newSchema.Clone()
	m.publish()
	return nil
}

func (m *rlistModel) Drop() {
	m.db.DropTable(m.data.Name)
	m.db.DropTable(m.versioningTabName())
	for _, p := range m.partitions {
		m.db.DropTable(p)
	}
	m.partitions = nil
	m.partitionOf = nil
	m.resident = nil
	m.versions = nil
	m.publish()
}

// Partitioned reports whether partitioned storage is active.
func (m *rlistModel) Partitioned() bool { return m.partitions != nil }

// PartitionOf returns the partition index of a version (-1 when
// unpartitioned or unknown).
func (m *rlistModel) PartitionOf(v vgraph.VersionID) int {
	if m.partitions == nil {
		return -1
	}
	k, ok := m.partitionOf[v]
	if !ok {
		return -1
	}
	return k
}

// PartitionTableName returns the name of the backing table a version's
// checkout reads: its partition table under partitioned storage, the shared
// data table otherwise ("" when the version has no assignment). The
// reference benchmark reads it to measure the records a checkout scans.
func (m *rlistModel) PartitionTableName(v vgraph.VersionID) string {
	if m.partitions == nil {
		return m.data.Name
	}
	k, ok := m.partitionOf[v]
	if !ok {
		return ""
	}
	return m.partitions[k]
}

// PartitionSizes returns the number of records in each partition table.
func (m *rlistModel) PartitionSizes() []int64 {
	out := make([]int64, len(m.partitions))
	for i, p := range m.partitions {
		out[i] = int64(m.db.MustTable(p).Len())
	}
	return out
}

// ApplyPartitioning reorganizes the data table into one partition table per
// group of the supplied partitioning, rebuilding everything from scratch
// (the "naive" migration path). Each partition table receives all records of
// all versions assigned to it; records shared across partitions are
// duplicated (Section 5.1).
func (m *rlistModel) ApplyPartitioning(p vgraph.Partitioning) error {
	defer m.publish()
	// Drop any previous partitions.
	for _, name := range m.partitions {
		m.db.DropTable(name)
	}
	m.partitions = nil
	m.partitionOf = make(map[vgraph.VersionID]int)

	// Create the (empty) partition tables sequentially, then fill them in
	// parallel: each fill reads the shared data table and writes only its own
	// partition table (and resident-set slot), so the builds are independent.
	groups := p.Groups()
	m.partitions = make([]string, len(groups))
	m.resident = make([]*recset.Set, len(groups))
	tables := make([]*relstore.Table, len(groups))
	for k, versions := range groups {
		name := m.partTabName(k)
		m.db.DropTable(name)
		t, err := m.db.CreateTable(name, dataSchemaWithRID(m.schema))
		if err != nil {
			return err
		}
		tables[k] = t
		m.partitions[k] = name
		for _, v := range versions {
			m.partitionOf[v] = k
		}
	}
	return parallel.ForEachErr(m.workers, len(groups), func(k int) error {
		return m.fillPartition(tables[k], k, groups[k])
	})
}

// fillPartition inserts into t (partition k) all records belonging to any of
// versions, fetched from the unpartitioned data table with a compressed-set
// probe and appended column-wise (no row materialization). The union set
// becomes the partition's resident-rid cache.
func (m *rlistModel) fillPartition(t *relstore.Table, k int, versions []vgraph.VersionID) error {
	need := recset.New()
	for _, v := range versions {
		rs, err := m.setOf(v)
		if err != nil {
			return err
		}
		need.UnionWith(rs)
	}
	sel, err := m.data.SelectRIDSet(ridColumn, need)
	if err != nil {
		return err
	}
	if err := t.AppendFrom(m.data, sel); err != nil {
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
// needed and inserting missing ones; others are rebuilt from scratch.
func (m *rlistModel) Migrate(p vgraph.Partitioning, plan []MigrationOp) (MigrationResult, error) {
	var res MigrationResult
	if m.partitions == nil {
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
	oldTables := make([]*relstore.Table, len(m.partitions))
	for i, name := range m.partitions {
		oldTables[i] = m.db.MustTable(name)
	}
	newNames := make([]string, p.NumPartitions)
	newResident := make([]*recset.Set, p.NumPartitions)
	newAssign := make(map[vgraph.VersionID]int)

	for _, op := range plan {
		need := recset.New()
		for _, v := range op.Versions {
			rs, err := m.setOf(v)
			if err != nil {
				return res, err
			}
			need.UnionWith(rs)
			newAssign[v] = op.NewPartition
		}
		tmpName := fmt.Sprintf("%s_newpart%d", m.name, op.NewPartition)
		m.db.DropTable(tmpName)
		t, err := m.db.CreateTable(tmpName, dataSchemaWithRID(m.schema))
		if err != nil {
			return res, err
		}
		// missing starts as everything the new partition needs; records copied
		// over from the transformed old partition are subtracted below.
		missing := need
		if op.FromPartition >= 0 && op.FromPartition < len(oldTables) {
			// Transform: copy surviving records from the old partition, count
			// the dropped ones as deletions, then insert the missing records.
			// The old partition's resident set tells us what it holds without
			// re-deriving it from the scan.
			old := oldTables[op.FromPartition]
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
		sel, err := m.data.SelectRIDSet(ridColumn, missing)
		if err != nil {
			return res, err
		}
		if err := t.AppendFrom(m.data, sel); err != nil {
			return res, err
		}
		res.RecordsInserted += int64(len(sel))
		newNames[op.NewPartition] = tmpName
		newResident[op.NewPartition] = need
	}
	// Swap in the new partitions under canonical names.
	for _, name := range m.partitions {
		m.db.DropTable(name)
	}
	m.partitions = make([]string, p.NumPartitions)
	for k, tmp := range newNames {
		final := m.partTabName(k)
		m.db.DropTable(final)
		if tmp == "" {
			// The plan omitted this partition (no versions assigned); create
			// an empty table so indexes stay dense.
			t, err := m.db.CreateTable(final, dataSchemaWithRID(m.schema))
			if err != nil {
				return res, err
			}
			_ = t
			m.partitions[k] = final
			newResident[k] = recset.New()
			continue
		}
		// Rename in place: re-registering the same table under its final name
		// avoids deep-cloning every row just to change the name.
		t := m.db.MustTable(tmp)
		m.db.DropTable(tmp)
		t.Name = final
		m.db.AttachTable(t)
		m.partitions[k] = final
	}
	m.partitionOf = newAssign
	m.resident = newResident
	return res, nil
}

// residentOf returns partition k's resident-rid set, rebuilding it from a
// table scan if the cache is missing (defensive; the cache is maintained on
// every fill, migrate, and per-commit insert).
func (m *rlistModel) residentOf(k int) *recset.Set {
	if k < len(m.resident) && m.resident[k] != nil {
		return m.resident[k]
	}
	t := m.db.MustTable(m.partitions[k])
	ridIdx := t.Schema.ColumnIndex(ridColumn)
	rs := recset.New()
	for i := 0; i < t.Len(); i++ {
		rs.Add(t.IntAt(i, ridIdx))
	}
	t.Stats().AddSeqReads(int64(t.Len()))
	if k < len(m.resident) {
		m.resident[k] = rs
	}
	return rs
}

// OnlineAssign places a newly committed version into partition k and inserts
// the version's new records into that partition (the online maintenance rule
// of Section 5.4). If newPartition is true a fresh partition is created for
// the version instead.
func (m *rlistModel) OnlineAssign(v vgraph.VersionID, k int, newPartition bool, rids []vgraph.RecordID) (int, error) {
	if m.partitions == nil {
		return -1, fmt.Errorf("cvd: %s: OnlineAssign requires partitioned storage", m.name)
	}
	if newPartition {
		k = len(m.partitions)
		name := m.partTabName(k)
		m.db.DropTable(name)
		if _, err := m.db.CreateTable(name, dataSchemaWithRID(m.schema)); err != nil {
			return -1, err
		}
		m.partitions = append(m.partitions, name)
		m.resident = append(m.resident, recset.New())
	}
	if k < 0 || k >= len(m.partitions) {
		return -1, fmt.Errorf("cvd: %s: partition %d out of range", m.name, k)
	}
	if err := m.addVersionToPartition(v, k, rids); err != nil {
		return -1, err
	}
	return k, nil
}

// addVersionToPartition ensures all records of the version exist in the
// partition table and records the assignment. Membership of already-present
// records comes from the partition's resident-rid recset — O(|rlist|) bit
// probes per commit — and the records it lacks, the commit's new ones among
// them, are appended column-wise from the data table, where record r is row
// r-1.
func (m *rlistModel) addVersionToPartition(v vgraph.VersionID, k int, rids []vgraph.RecordID) error {
	t := m.db.MustTable(m.partitions[k])
	have := m.residentOf(k)
	var missing []vgraph.RecordID // ascending, as rids is
	for _, rid := range rids {
		if !have.Contains(int64(rid)) {
			missing = append(missing, rid)
		}
	}
	if len(missing) > 0 { // an append of nothing would still unshare t's columns
		if err := t.AppendFrom(m.data, positions(missing)); err != nil {
			return err
		}
	}
	for _, rid := range missing {
		have.Add(int64(rid))
	}
	if m.partitionOf == nil {
		m.partitionOf = make(map[vgraph.VersionID]int)
	}
	m.partitionOf[v] = k
	return nil
}
