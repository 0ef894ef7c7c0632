package cvd

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// This file keeps the commit path the record index replaced — contentKey,
// checkPrimaryKey and buildCommit as they were, O(|version|) and string-keyed
// — as the oracle of the differential test (differential_test.go). It is a
// copy, not a second commit path: nothing outside the tests can reach it.
//
// Where it and the live path disagree by design, the test's generator stays
// away (see editSession): the oracle renders cells, so to it NULL is the empty
// string, a separator byte inside a string forges a cell boundary, a NaN never
// equals itself, a decimal of 1e6 or more stops matching the integer it was
// generalized from, and two records of equal content in one staging table
// collapse into the first.

// contentKey encodes a data row (of the current schema width) for
// record-identity comparison during commit.
func (c *CVD) contentKey(r relstore.Row) string {
	var b strings.Builder
	for i, v := range r[:len(c.schema.Columns)] {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(v.AsString())
	}
	return b.String()
}

// refCheckPrimaryKey verifies that no two rows share primary-key values.
func (c *CVD) refCheckPrimaryKey(rows []relstore.Row, schema relstore.Schema) error {
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

// refBuildCommit diffs the staged rows against the parent versions: a staged
// row reuses the rid of a parent record with identical content; all other
// rows get fresh rids, returned as applyCommit takes them (rid, then values).
func (c *CVD) refBuildCommit(parents []vgraph.VersionID, rows []relstore.Row, schema relstore.Schema) (CommitRequest, []relstore.Row, error) {
	merged, changed, err := c.mergedSchema(schema)
	if err != nil {
		return CommitRequest{}, nil, err
	}
	place, err := c.columnPlaces(schema, merged)
	if err != nil {
		return CommitRequest{}, nil, err
	}
	for _, r := range rows {
		if len(r) != len(schema.Columns) {
			return CommitRequest{}, nil, fmt.Errorf("cvd: %s: row has %d values but schema has %d columns", c.name, len(r), len(schema.Columns))
		}
	}
	// Single-pool schema evolution next, so content keys use the final width.
	if changed {
		if err := c.adoptSchema(merged); err != nil {
			return CommitRequest{}, nil, err
		}
	}
	req := CommitRequest{
		Version:    c.nextVersion(),
		Parents:    append([]vgraph.VersionID(nil), parents...),
		ParentRIDs: c.records,
	}
	parentByKey := make(map[string]vgraph.RecordID)
	for _, p := range parents {
		for _, rid := range c.records(p) {
			row := c.catalog.RowAt(int(rid) - 1)[1:]
			key := c.contentKey(row)
			if _, exists := parentByKey[key]; !exists {
				parentByKey[key] = rid
			}
		}
	}
	seenRID := make(map[vgraph.RecordID]struct{}, len(rows))
	kept := make([]vgraph.RecordID, 0, len(rows))
	var fresh []relstore.Row
	for _, r := range rows {
		aligned := make(relstore.Row, 1+len(merged.Columns))
		for i := range aligned {
			aligned[i] = relstore.Null()
		}
		for j, i := range place {
			aligned[1+i] = r[j]
		}
		key := c.contentKey(aligned[1:])
		if rid, ok := parentByKey[key]; ok {
			if _, dup := seenRID[rid]; dup {
				continue // identical duplicate row within the staged table
			}
			seenRID[rid] = struct{}{}
			kept = append(kept, rid)
			continue
		}
		aligned[0] = relstore.Int(int64(c.nextRID) + int64(len(fresh)))
		fresh = append(fresh, aligned)
	}
	slices.Sort(kept)
	req.RIDs = kept
	return req, fresh, nil
}

// refCommit is Commit as it was: the primary-key check over every row, the
// string-keyed diff, then the apply step both paths share.
func (c *CVD) refCommit(parents []vgraph.VersionID, rows []relstore.Row, rowSchema relstore.Schema, msg, author string) (vgraph.VersionID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.admitCommit(parents); err != nil {
		return 0, err
	}
	if err := c.refCheckPrimaryKey(rows, rowSchema); err != nil {
		return 0, err
	}
	req, fresh, err := c.refBuildCommit(parents, rows, rowSchema)
	if err != nil {
		return 0, err
	}
	if err := c.applyCommit(req, fresh, msg, author, c.clock()); err != nil {
		return 0, err
	}
	c.publish()
	return req.Version, nil
}

// refCommitTable is CommitTable as it was — project the rid column away, box
// every row, refCommit — with one difference: the projection used to drop the
// primary key with the rid column, so CommitTable never checked it; here the
// CVD's key is put back, which is the constraint the live path enforces.
func (c *CVD) refCommitTable(tableName, msg, author string) (vgraph.VersionID, error) {
	c.ckMu.Lock()
	info, ok := c.checkouts[tableName]
	c.ckMu.Unlock()
	if !ok {
		return 0, fmt.Errorf("cvd: %s: table %q was not produced by checkout", c.name, tableName)
	}
	t := c.db.MustTable(tableName)
	dataCols := make([]string, 0, len(t.Schema.Columns))
	for _, col := range t.Schema.Columns {
		if col.Name != ridColumn {
			dataCols = append(dataCols, col.Name)
		}
	}
	proj, err := t.Project(tableName+"_commitproj", dataCols...)
	if err != nil {
		return 0, err
	}
	schema := proj.Schema
	schema.PrimaryKey = c.Schema().PrimaryKey
	v, err := c.refCommit(info.parents, proj.Rows(), schema, msg, author)
	if err != nil {
		return 0, err
	}
	c.DiscardCheckout(tableName)
	return v, nil
}
