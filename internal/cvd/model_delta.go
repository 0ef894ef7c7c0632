package cvd

import (
	"fmt"

	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// deltaModel is the delta-based data model (Approach 4.4): every version is
// stored as a separate table holding its modifications (insertions and
// tombstoned deletions) relative to a single precedent version, plus a
// precedent metadata table recording which version each delta is based on.
// Checkout must walk the precedent chain back to the root; queries that span
// many versions effectively require recreating them, which is why OrpheusDB
// does not adopt this model despite its compact storage.
type deltaModel struct {
	db     *relstore.Database
	name   string
	schema relstore.Schema
	bases  map[vgraph.VersionID]vgraph.VersionID // version -> precedent (0 for root)
}

func newDeltaModel(db *relstore.Database, name string, schema relstore.Schema) *deltaModel {
	return &deltaModel{db: db, name: name, schema: schema.Clone(), bases: make(map[vgraph.VersionID]vgraph.VersionID)}
}

func (m *deltaModel) Kind() ModelKind { return DeltaBased }

func (m *deltaModel) deltaTabName(v vgraph.VersionID) string {
	return fmt.Sprintf("%s_delta%d", m.name, v)
}
func (m *deltaModel) metaTabName() string { return m.name + "_precedent" }

const tombstoneColumn = "tombstone"

func (m *deltaModel) deltaSchema() relstore.Schema {
	cols := make([]relstore.Column, 0, len(m.schema.Columns)+2)
	cols = append(cols, relstore.Column{Name: ridColumn, Type: relstore.TypeInt})
	cols = append(cols, m.schema.Columns...)
	cols = append(cols, relstore.Column{Name: tombstoneColumn, Type: relstore.TypeBool})
	return relstore.MustSchema(cols, ridColumn)
}

func (m *deltaModel) Init(req CommitRequest) error {
	if _, err := m.db.CreateTable(m.metaTabName(), relstore.MustSchema([]relstore.Column{
		{Name: vidColumn, Type: relstore.TypeInt},
		{Name: "base", Type: relstore.TypeInt},
	}, vidColumn)); err != nil {
		return err
	}
	return m.AppendVersion(req)
}

func (m *deltaModel) AppendVersion(req CommitRequest) error {
	// Pick the precedent: the parent sharing the largest number of records
	// with the new version (Section 4.1, Approach 4.4).
	var base vgraph.VersionID
	var bestCommon int64 = -1
	vset := make(map[vgraph.RecordID]struct{}, len(req.RIDs))
	for _, r := range req.RIDs {
		vset[r] = struct{}{}
	}
	var baseRIDs []vgraph.RecordID
	for _, p := range req.Parents {
		var common int64
		rids := req.ParentRIDs(p)
		for _, r := range rids {
			if _, ok := vset[r]; ok {
				common++
			}
		}
		if common > bestCommon {
			bestCommon = common
			base, baseRIDs = p, rids
		}
	}

	t, err := m.db.CreateTable(m.deltaTabName(req.Version), m.deltaSchema())
	if err != nil {
		return err
	}
	dataCols := len(m.schema.Columns)

	newByRID := make(map[vgraph.RecordID]CommitRecord, len(req.NewRecords))
	for _, rec := range req.NewRecords {
		newByRID[rec.RID] = rec
	}
	baseSet := make(map[vgraph.RecordID]struct{})
	if base != 0 {
		for _, r := range baseRIDs {
			baseSet[r] = struct{}{}
		}
	}
	insertRow := func(rid vgraph.RecordID, data relstore.Row, tombstone bool) error {
		row := make(relstore.Row, 0, dataCols+2)
		row = append(row, relstore.Int(int64(rid)))
		row = append(row, padRow(data, dataCols)...)
		row = append(row, relstore.Bool(tombstone))
		return t.Insert(row)
	}
	// Insertions: records in the new version that the base does not have.
	for _, rid := range req.RIDs {
		if _, inBase := baseSet[rid]; inBase {
			continue
		}
		var data relstore.Row
		if rec, ok := newByRID[rid]; ok {
			data = rec.Row.Clone()
		} else if req.Lookup != nil {
			if row, ok := req.Lookup(rid); ok {
				data = row.Clone()
			}
		}
		if data == nil {
			return fmt.Errorf("cvd: %s: no content available for record %d of version %d", m.name, rid, req.Version)
		}
		if err := insertRow(rid, data, false); err != nil {
			return err
		}
	}
	// Deletions: records in the base missing from the new version; their
	// content is repeated with a tombstone (this is what makes delta-based
	// storage worse when deletions are common).
	if base != 0 {
		for _, rid := range baseRIDs {
			if _, still := vset[rid]; still {
				continue
			}
			var data relstore.Row
			if req.Lookup != nil {
				if row, ok := req.Lookup(rid); ok {
					data = row.Clone()
				}
			}
			if data == nil {
				data = relstore.Row{}
			}
			if err := insertRow(rid, data, true); err != nil {
				return err
			}
		}
	}
	meta := m.db.MustTable(m.metaTabName())
	if err := meta.Insert(relstore.Row{relstore.Int(int64(req.Version)), relstore.Int(int64(base))}); err != nil {
		return err
	}
	m.bases[req.Version] = base
	return nil
}

func (m *deltaModel) Checkout(v vgraph.VersionID, tableName string) (*relstore.Table, error) {
	if _, ok := m.bases[v]; !ok {
		return nil, fmt.Errorf("cvd: %s: version %d not found", m.name, v)
	}
	out := relstore.NewTable(tableName, dataSchemaWithRID(m.schema))
	seen := make(map[int64]struct{})
	dataCols := len(m.schema.Columns)
	cur := v
	for {
		t := m.db.MustTable(m.deltaTabName(cur))
		out.SetStats(t.Stats())
		tombIdx := t.Schema.ColumnIndex(tombstoneColumn)
		t.Scan(func(_ int, r relstore.Row) bool {
			rid := r[0].AsInt()
			if _, dup := seen[rid]; dup {
				return true
			}
			seen[rid] = struct{}{}
			if r[tombIdx].AsBool() {
				return true // deleted in a later version; never resurface
			}
			row := make(relstore.Row, 0, dataCols+1)
			row = append(row, r[:len(r)-1].Clone()...)
			out.AppendRow(padRow(row, dataCols+1))
			return true
		})
		base := m.bases[cur]
		if base == 0 {
			break
		}
		cur = base
	}
	_ = out.BuildIndexOn(ridColumn)
	return out, nil
}

func (m *deltaModel) StorageBytes() int64 {
	var n int64
	for v := range m.bases {
		n += m.db.MustTable(m.deltaTabName(v)).StorageBytes()
	}
	n += m.db.MustTable(m.metaTabName()).StorageBytes()
	return n
}

func (m *deltaModel) AlterSchema(newSchema relstore.Schema) error {
	// Delta tables for already-committed versions are immutable; only new
	// deltas use the evolved schema.
	m.schema = newSchema.Clone()
	return nil
}

func (m *deltaModel) Drop() {
	for v := range m.bases {
		m.db.DropTable(m.deltaTabName(v))
	}
	m.db.DropTable(m.metaTabName())
	m.bases = make(map[vgraph.VersionID]vgraph.VersionID)
}
