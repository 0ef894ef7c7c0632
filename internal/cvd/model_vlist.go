package cvd

import (
	"fmt"

	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// vlistModel is the split-by-vlist data model (Approach 4.2): a shared data
// table keyed by rid plus a versioning table keyed by rid whose vlist array
// lists the versions each record belongs to. Commit must append the new
// version id to the vlist of every record present in the committed version,
// which is what makes its commit time grow with version size (Figure 4.1b).
type vlistModel struct {
	db     *relstore.Database
	name   string
	schema relstore.Schema
}

func newVlistModel(db *relstore.Database, name string, schema relstore.Schema) *vlistModel {
	return &vlistModel{db: db, name: name, schema: schema.Clone()}
}

func (m *vlistModel) Kind() ModelKind { return SplitByVlist }

func (m *vlistModel) dataTabName() string       { return m.name + "_data" }
func (m *vlistModel) versioningTabName() string { return m.name + "_versions" }

func (m *vlistModel) Init(req CommitRequest) error {
	if _, err := m.db.CreateTable(m.dataTabName(), dataSchemaWithRID(m.schema)); err != nil {
		return err
	}
	if _, err := m.db.CreateTable(m.versioningTabName(), relstore.MustSchema([]relstore.Column{
		{Name: ridColumn, Type: relstore.TypeInt},
		{Name: vlistColumn, Type: relstore.TypeIntArray},
	}, ridColumn)); err != nil {
		return err
	}
	return m.AppendVersion(req)
}

func (m *vlistModel) AppendVersion(req CommitRequest) error {
	data := m.db.MustTable(m.dataTabName())
	vt := m.db.MustTable(m.versioningTabName())

	// The new records are the catalog's tail rows and the tail of req.RIDs.
	kept := req.RIDs[:len(req.RIDs)-req.New]
	if err := data.AppendFrom(req.Records, positions(req.RIDs[len(kept):])); err != nil {
		return err
	}
	for _, rid := range req.RIDs[len(kept):] {
		if err := vt.Insert(relstore.Row{relstore.Int(int64(rid)), relstore.IntArray([]int64{int64(req.Version)})}); err != nil {
			return err
		}
	}
	// Append the new version id to the vlist of every pre-existing record in
	// the version: the expensive array-append UPDATE of Table 4.1.
	existing := make(map[int64]struct{}, len(kept))
	for _, rid := range kept {
		existing[int64(rid)] = struct{}{}
	}
	if len(existing) == 0 {
		return nil
	}
	ridIdx := vt.Schema.ColumnIndex(ridColumn)
	vlIdx := vt.Schema.ColumnIndex(vlistColumn)
	_, err := vt.UpdateWhere(
		func(r relstore.Row) bool {
			_, ok := existing[r[ridIdx].AsInt()]
			return ok
		},
		func(r relstore.Row) relstore.Row {
			r[vlIdx] = relstore.IntArray(relstore.ArrayAppend(r[vlIdx].A(), int64(req.Version)))
			return r
		},
	)
	return err
}

func (m *vlistModel) Checkout(v vgraph.VersionID, tableName string) (*relstore.Table, error) {
	vt := m.db.MustTable(m.versioningTabName())
	vlIdx := vt.Schema.ColumnIndex(vlistColumn)
	ridIdx := vt.Schema.ColumnIndex(ridColumn)
	var rids []int64
	// Full scan of the versioning table checking vlist containment
	// (`ARRAY[vi] <@ vlist` in Table 4.1).
	vt.Scan(func(_ int, r relstore.Row) bool {
		if relstore.ArrayHas(r[vlIdx].A(), int64(v)) {
			rids = append(rids, r[ridIdx].AsInt())
		}
		return true
	})
	if len(rids) == 0 {
		return nil, fmt.Errorf("cvd: %s: version %d not found", m.name, v)
	}
	data := m.db.MustTable(m.dataTabName())
	rows, err := relstore.JoinOnRIDs(data, ridColumn, rids, relstore.HashJoin)
	if err != nil {
		return nil, err
	}
	out := relstore.NewTable(tableName, data.Schema.Clone())
	out.SetStats(data.Stats())
	for _, r := range rows {
		out.AppendRow(r.Clone())
	}
	if err := out.BuildIndexOn(ridColumn); err != nil {
		return nil, err
	}
	return out, nil
}

func (m *vlistModel) StorageBytes() int64 {
	return m.db.MustTable(m.dataTabName()).StorageBytes() + m.db.MustTable(m.versioningTabName()).StorageBytes()
}

func (m *vlistModel) AlterSchema(newSchema relstore.Schema) error {
	if err := alterTable(m.db.MustTable(m.dataTabName()), newSchema); err != nil {
		return err
	}
	m.schema = newSchema.Clone()
	return nil
}

func (m *vlistModel) Drop() {
	m.db.DropTable(m.dataTabName())
	m.db.DropTable(m.versioningTabName())
}
