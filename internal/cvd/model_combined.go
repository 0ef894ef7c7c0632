package cvd

import (
	"fmt"

	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// combinedModel is the combined-table data model (Approach 4.1): a single
// table holding the data attributes, the rid, and a vlist array naming every
// version each record belongs to. Checkout is a full scan with an array
// containment check; commit appends the new version id to the vlist of every
// record in the version, making it the slowest model for commit
// (Figure 4.1b).
type combinedModel struct {
	db     *relstore.Database
	name   string
	schema relstore.Schema
}

func newCombinedModel(db *relstore.Database, name string, schema relstore.Schema) *combinedModel {
	return &combinedModel{db: db, name: name, schema: schema.Clone()}
}

func (m *combinedModel) Kind() ModelKind { return CombinedTable }

func (m *combinedModel) tabName() string { return m.name + "_combined" }

func (m *combinedModel) combinedSchema() relstore.Schema {
	cols := make([]relstore.Column, 0, len(m.schema.Columns)+2)
	cols = append(cols, relstore.Column{Name: ridColumn, Type: relstore.TypeInt})
	cols = append(cols, m.schema.Columns...)
	cols = append(cols, relstore.Column{Name: vlistColumn, Type: relstore.TypeIntArray})
	return relstore.MustSchema(cols, ridColumn)
}

func (m *combinedModel) Init(req CommitRequest) error {
	if _, err := m.db.CreateTable(m.tabName(), m.combinedSchema()); err != nil {
		return err
	}
	return m.AppendVersion(req)
}

func (m *combinedModel) AppendVersion(req CommitRequest) error {
	t := m.db.MustTable(m.tabName())
	vlIdx := t.Schema.ColumnIndex(vlistColumn)
	ridIdx := t.Schema.ColumnIndex(ridColumn)

	// The new records are the catalog's tail rows and the tail of req.RIDs; the
	// catalog has no vlist column, so theirs starts NULL and is set here.
	kept := req.RIDs[:len(req.RIDs)-req.New]
	first := t.Len()
	if err := t.AppendFrom(req.Records, positions(req.RIDs[len(kept):])); err != nil {
		return err
	}
	for p := first; p < t.Len(); p++ {
		t.Set(p, vlIdx, relstore.IntArray([]int64{int64(req.Version)}))
	}
	existing := make(map[int64]struct{}, len(kept))
	for _, rid := range kept {
		existing[int64(rid)] = struct{}{}
	}
	if len(existing) == 0 {
		return nil
	}
	_, err := t.UpdateWhere(
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

func (m *combinedModel) Checkout(v vgraph.VersionID, tableName string) (*relstore.Table, error) {
	t := m.db.MustTable(m.tabName())
	vlIdx := t.Schema.ColumnIndex(vlistColumn)
	outSchema := dataSchemaWithRID(m.schema)
	out := relstore.NewTable(tableName, outSchema)
	out.SetStats(t.Stats())
	found := false
	t.Scan(func(_ int, r relstore.Row) bool {
		if relstore.ArrayHas(r[vlIdx].A(), int64(v)) {
			found = true
			out.AppendRow(r[:len(outSchema.Columns)].Clone())
		}
		return true
	})
	if !found {
		return nil, fmt.Errorf("cvd: %s: version %d not found", m.name, v)
	}
	if err := out.BuildIndexOn(ridColumn); err != nil {
		return nil, err
	}
	return out, nil
}

func (m *combinedModel) StorageBytes() int64 {
	return m.db.MustTable(m.tabName()).StorageBytes()
}

func (m *combinedModel) AlterSchema(newSchema relstore.Schema) error {
	for _, c := range newSchema.Columns {
		t := m.db.MustTable(m.tabName()) // adding a column replaces the table
		if !t.Schema.HasColumn(c.Name) {
			// New data columns are inserted before the trailing vlist column by
			// rebuilding the table (ALTER ... ADD COLUMN appends, so we rebuild
			// to keep vlist last).
			if err := m.addColumnBeforeVlist(t, c); err != nil {
				return err
			}
			continue
		}
		idx := t.Schema.ColumnIndex(c.Name)
		if t.Schema.Columns[idx].Type != c.Type {
			if err := t.GeneralizeColumn(c.Name, c.Type); err != nil {
				return err
			}
		}
	}
	m.schema = newSchema.Clone()
	return nil
}

func (m *combinedModel) addColumnBeforeVlist(t *relstore.Table, c relstore.Column) error {
	oldRows := t.Rows()
	m.schema, _ = m.schema.WithColumn(c)
	newTab := relstore.NewTable(t.Name, m.combinedSchema())
	newTab.SetStats(t.Stats())
	for _, r := range oldRows {
		row := make(relstore.Row, 0, len(newTab.Schema.Columns))
		row = append(row, r[:len(r)-1]...) // rid + old data columns
		row = append(row, relstore.Null()) // new column
		row = append(row, r[len(r)-1])     // vlist stays last
		if err := newTab.Insert(row); err != nil {
			return err
		}
	}
	m.db.AttachTable(newTab)
	return nil
}

func (m *combinedModel) Drop() { m.db.DropTable(m.tabName()) }
