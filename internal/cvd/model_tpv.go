package cvd

import (
	"fmt"

	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// tpvModel is the a-table-per-version data model (Approach 4.5): every
// version is stored as its own table containing all of its records. Checkout
// is as cheap as copying one table, but storage grows with the total number
// of (version, record) pairs rather than with the number of distinct records
// (Figure 4.1a).
type tpvModel struct {
	db       *relstore.Database
	name     string
	schema   relstore.Schema
	versions map[vgraph.VersionID]string
}

func newTPVModel(db *relstore.Database, name string, schema relstore.Schema) *tpvModel {
	return &tpvModel{db: db, name: name, schema: schema.Clone(), versions: make(map[vgraph.VersionID]string)}
}

func (m *tpvModel) Kind() ModelKind { return TablePerVersion }

func (m *tpvModel) tabName(v vgraph.VersionID) string { return fmt.Sprintf("%s_v%d", m.name, v) }

func (m *tpvModel) Init(req CommitRequest) error { return m.AppendVersion(req) }

func (m *tpvModel) AppendVersion(req CommitRequest) error {
	name := m.tabName(req.Version)
	t, err := m.db.CreateTable(name, dataSchemaWithRID(m.schema))
	if err != nil {
		return err
	}
	// Every record of the version, new or inherited, comes from the catalog,
	// in the form the schema in force stores it.
	if err := t.AppendFrom(req.Records, positions(req.RIDs)); err != nil {
		return err
	}
	m.versions[req.Version] = name
	return nil
}

func (m *tpvModel) Checkout(v vgraph.VersionID, tableName string) (*relstore.Table, error) {
	name, ok := m.versions[v]
	if !ok {
		return nil, fmt.Errorf("cvd: %s: version %d not found", m.name, v)
	}
	src := m.db.MustTable(name)
	out := relstore.NewTable(tableName, src.Schema.Clone())
	out.SetStats(src.Stats())
	src.Scan(func(_ int, r relstore.Row) bool {
		out.AppendRow(r.Clone())
		return true
	})
	if err := out.BuildIndexOn(ridColumn); err != nil {
		return nil, err
	}
	return out, nil
}

func (m *tpvModel) StorageBytes() int64 {
	var n int64
	for _, name := range m.versions {
		n += m.db.MustTable(name).StorageBytes()
	}
	return n
}

func (m *tpvModel) AlterSchema(newSchema relstore.Schema) error {
	// Only tables for new versions carry the evolved schema; existing
	// version tables are immutable snapshots and keep their schema. This is
	// the multi-pool flavour of evolution, which is natural for
	// a-table-per-version.
	m.schema = newSchema.Clone()
	return nil
}

func (m *tpvModel) Drop() {
	for _, name := range m.versions {
		m.db.DropTable(name)
	}
	m.versions = make(map[vgraph.VersionID]string)
}
