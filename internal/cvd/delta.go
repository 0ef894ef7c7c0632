package cvd

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/recset"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// This file is both ends of the Journal contract (see Journal): deltaLocked
// assembles what a commit hands to LogCommit, and ReplayInit / ReplayCommit
// apply a journalled delta back. Replay costs the delta, not the version: it
// never runs the primary-key check or buildCommit's content match, and it
// verifies that the delta continues the state it is applied to instead of
// renumbering a log that does not.

// deltaSchemaOf is the schema of a delta table: the rid column, then the data
// schema (whose primary key it keeps, so the data schema is recoverable
// exactly).
func deltaSchemaOf(data relstore.Schema) relstore.Schema {
	s := dataSchemaWithRID(data)
	s.PrimaryKey = append([]string(nil), data.PrimaryKey...)
	return s
}

// dataSchemaOf inverts deltaSchemaOf.
func dataSchemaOf(deltaSchema relstore.Schema) (relstore.Schema, error) {
	if len(deltaSchema.Columns) < 2 || deltaSchema.Columns[0].Name != ridColumn {
		return relstore.Schema{}, fmt.Errorf("delta schema (%s) is not the %s column followed by data columns", deltaSchema, ridColumn)
	}
	return relstore.Schema{Columns: deltaSchema.Columns[1:], PrimaryKey: deltaSchema.PrimaryKey}, nil
}

// InitDelta returns the CVD's first version in the form Journal.LogCommit
// receives a commit — its id alone, every record added, no tombstones — for
// the engine to journal the CVD's creation. Ask before any commit: the rows
// are laid out under the current schema, which a later commit may evolve.
func (c *CVD) InitDelta() (versions []vgraph.VersionID, delta []relstore.Row, deltaSchema relstore.Schema) {
	st := c.read()
	if !st.has(1) {
		return nil, nil, relstore.Schema{}
	}
	added := make([]relstore.Row, 0, st.sets[0].Len())
	st.sets[0].ForEach(func(rid int64) bool {
		added = append(added, st.catalog.RowAt(int(rid)-1))
		return true
	})
	return []vgraph.VersionID{1}, added, deltaSchemaOf(st.schema)
}

// deltaLocked returns the delta of v, the version just recorded, against its
// parents: added — the records it added, each its rid and then its data values,
// as applyCommit took them — followed by a tombstone per record of the parents
// it does not keep. The caller holds c.mu.
func (c *CVD) deltaLocked(v vgraph.VersionID, parents []vgraph.VersionID, added []relstore.Row) ([]vgraph.VersionID, []relstore.Row, relstore.Schema) {
	versions := make([]vgraph.VersionID, 0, len(parents)+1)
	versions = append(append(versions, v), parents...)
	dropped := recset.AndNot(c.unionSet(parents), c.recordSet(v))
	delta := slices.Grow(added, int(dropped.Len()))
	dropped.ForEach(func(rid int64) bool {
		delta = append(delta, relstore.Row{relstore.Int(rid)})
		return true
	})
	return versions, delta, deltaSchemaOf(c.schema)
}

// ReplayInit rebuilds a CVD from the journalled delta of its first version.
// opts carries what Init took (model, workers) and what it recorded (author,
// message, and the original commit time in At).
func ReplayInit(db *relstore.Database, name string, versions []vgraph.VersionID, delta []relstore.Row, deltaSchema relstore.Schema, opts Options) (*CVD, error) {
	if len(versions) != 1 {
		return nil, fmt.Errorf("cvd: %s: a journalled first version is its id alone, got %d version ids", name, len(versions))
	}
	data, err := dataSchemaOf(deltaSchema)
	if err != nil {
		return nil, fmt.Errorf("cvd: %s: %w", name, err)
	}
	c, err := newCVD(db, name, data, opts)
	if err != nil {
		return nil, err
	}
	if err := c.replay(versions, delta, deltaSchema, opts.Message, opts.Author, opts.At); err != nil {
		c.meta.drop()
		return nil, err
	}
	return c, nil
}

// ReplayCommit applies one journalled commit delta. It fails, leaving the CVD
// untouched, unless the delta continues the CVD's state exactly: its version
// id is the next one, its parents exist, its tombstones name records the
// parents hold, its added records carry the next record ids, and its schema is
// what evolving the current schema by it yields.
func (c *CVD) ReplayCommit(versions []vgraph.VersionID, delta []relstore.Row, deltaSchema relstore.Schema, msg, author string, at time.Time) error {
	if len(versions) < 2 {
		return fmt.Errorf("cvd: %s: a replayed commit needs its version id and at least one parent", c.name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replay(versions, delta, deltaSchema, msg, author, at)
}

// replay is the shared body of ReplayInit and ReplayCommit; the caller holds
// c.mu (or owns the not yet published CVD).
func (c *CVD) replay(versions []vgraph.VersionID, delta []relstore.Row, deltaSchema relstore.Schema, msg, author string, at time.Time) error {
	v, parents := versions[0], versions[1:]
	if v != c.nextVersion() {
		return fmt.Errorf("cvd: %s: journalled version %d does not continue the history (next version is %d)", c.name, v, c.nextVersion())
	}
	for _, p := range parents {
		if c.graph.Node(p) == nil {
			return fmt.Errorf("cvd: %s: journalled version %d names unknown parent version %d", c.name, v, p)
		}
	}
	data, err := dataSchemaOf(deltaSchema)
	if err != nil {
		return fmt.Errorf("cvd: %s: journalled version %d: %w", c.name, v, err)
	}
	merged, evolved, err := c.mergedSchema(data)
	if err != nil || !merged.Equal(data) {
		return fmt.Errorf("cvd: %s: journalled version %d has schema (%s), which is not the current schema (%s) evolved", c.name, v, data, c.schema)
	}

	rids := c.unionSet(parents)
	var added []relstore.Row
	for _, row := range delta {
		switch len(row) {
		case 1:
			if rid := row[0].AsInt(); !rids.Remove(rid) {
				return fmt.Errorf("cvd: %s: journalled version %d drops record %d, which its parents do not hold", c.name, v, rid)
			}
		case len(deltaSchema.Columns):
			rid, want := vgraph.RecordID(row[0].AsInt()), c.nextRID+vgraph.RecordID(len(added))
			if rid != want {
				return fmt.Errorf("cvd: %s: journalled version %d adds record %d where the next record id is %d", c.name, v, rid, want)
			}
			added = append(added, row)
		default:
			return fmt.Errorf("cvd: %s: journalled version %d: a delta row of %d values is neither a tombstone nor a record of %d", c.name, v, len(row), len(deltaSchema.Columns))
		}
	}

	// Verified: from here on the CVD changes exactly as a live commit's does.
	if evolved {
		if err := c.adoptSchema(merged); err != nil {
			return err
		}
	}
	req := CommitRequest{
		Version:    v,
		Parents:    append([]vgraph.VersionID(nil), parents...),
		ParentRIDs: c.records,
		RIDs:       vgraph.RecordIDs(rids),
	}
	if err := c.applyCommit(req, added, msg, author, at); err != nil {
		return err
	}
	c.publish()
	return nil
}
