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
	baseSet := make(map[vgraph.RecordID]struct{}, len(baseRIDs))
	for _, r := range baseRIDs {
		baseSet[r] = struct{}{}
	}
	// Insertions are the records of the new version that the base does not
	// have; deletions the records of the base missing from the new version,
	// whose content is repeated with a tombstone (this is what makes
	// delta-based storage worse when deletions are common). Both are taken
	// from the catalog, which has no tombstone column: it is set here.
	var changed []vgraph.RecordID
	for _, rid := range req.RIDs {
		if _, inBase := baseSet[rid]; !inBase {
			changed = append(changed, rid)
		}
	}
	inserted := len(changed)
	for _, rid := range baseRIDs {
		if _, still := vset[rid]; !still {
			changed = append(changed, rid)
		}
	}
	if err := t.AppendFrom(req.Records, positions(changed)); err != nil {
		return err
	}
	tombIdx := t.Schema.ColumnIndex(tombstoneColumn)
	for p := range changed {
		t.Set(p, tombIdx, relstore.Bool(p >= inserted))
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
			// A delta older than a schema change keeps the schema it was written
			// under; its rows are read in the form the current one stores them
			// (AppendRow pads the columns they lack with NULL).
			row := r[:len(r)-1].Clone()
			for j := range row[1:] {
				row[j+1] = *canonical(&row[j+1], m.schema.Columns[j].Type, &row[j+1])
			}
			out.AppendRow(row)
			return true
		})
		base := m.bases[cur]
		if base == 0 {
			break
		}
		cur = base
	}
	if err := out.BuildIndexOn(ridColumn); err != nil {
		return nil, err
	}
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
