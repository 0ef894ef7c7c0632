// Package cvd implements collaborative versioned datasets (CVDs): relations
// that implicitly contain many versions, stored inside the relstore
// substrate using one of the five data models compared in Chapter 4
// (a-table-per-version, combined-table, split-by-vlist, split-by-rlist and
// delta-based). It provides the git-style checkout / commit / diff workflow
// of Chapter 3, version metadata and schema evolution of Section 4.3, and
// the versioned query shortcuts used by the OrpheusDB query language. Only
// split-by-rlist CVDs persist (PersistentState, package durable); the other
// four models are in-memory reproductions of Figure 4.1.
//
// CVDs are safe for concurrent use: writers serialize behind a per-CVD
// mutex and each publishes an immutable read state, off which checkouts,
// diffs, versioned queries and metadata reads run without taking the mutex.
// A multi-version checkout additionally parallelizes internally when the CVD
// is created with Options.Workers > 1. The only unsynchronized surface is the raw-structure
// accessors (Graph, DataModel, Rlist, Attributes), which return
// live internal pointers; guard multi-step access to those with
// WithExclusive.
package cvd

import (
	"errors"
	"fmt"

	"repro/internal/recset"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// ModelKind enumerates the physical data models for representing a CVD
// inside the relational substrate (Section 4.1).
type ModelKind int

const (
	// SplitByRlist stores a data table plus a versioning table keyed by vid
	// with an rlist per version (the model OrpheusDB adopts); the rlist is
	// the version's compressed record set.
	SplitByRlist ModelKind = iota
	// SplitByVlist stores a data table plus a versioning table keyed by rid
	// with a vlist array.
	SplitByVlist
	// CombinedTable stores a single table with a vlist array per record.
	CombinedTable
	// TablePerVersion stores every version as its own table.
	TablePerVersion
	// DeltaBased stores each version as a delta (insertions plus tombstoned
	// deletions) from a chosen precedent version.
	DeltaBased
)

// String names the model.
func (k ModelKind) String() string {
	switch k {
	case SplitByRlist:
		return "split-by-rlist"
	case SplitByVlist:
		return "split-by-vlist"
	case CombinedTable:
		return "combined-table"
	case TablePerVersion:
		return "a-table-per-version"
	case DeltaBased:
		return "delta-based"
	default:
		return fmt.Sprintf("model(%d)", int(k))
	}
}

// ErrInMemoryModel is what every durable path refuses a CVD of another model
// than split-by-rlist with (see CheckDurable).
var ErrInMemoryModel = errors.New("only split-by-rlist CVDs are durable; the other four data models are in-memory reproductions of Figure 4.1")

// CheckDurable returns nil for a CVD of the split-by-rlist model and, for any
// other, the one error that names the CVD and its model. A durable engine's
// Init, Adopt, Save and checkpoints, the WAL and checkpoint decoders and fsck
// all refuse with it.
func CheckDurable(name string, kind ModelKind) error {
	if kind == SplitByRlist {
		return nil
	}
	return fmt.Errorf("cvd: CVD %q uses %s: %w", name, kind, ErrInMemoryModel)
}

// CommitRequest carries everything a data model needs to add a new version.
type CommitRequest struct {
	// Version is the id of the new version.
	Version vgraph.VersionID
	// Parents are the versions the commit derives from (empty for the
	// initial version).
	Parents []vgraph.VersionID
	// ParentRIDs lists the record ids a parent contains, ascending, as a
	// fresh slice. Only models that diff against a parent (delta-based) call
	// it; the others never pay for the list.
	ParentRIDs func(vgraph.VersionID) []vgraph.RecordID
	// RIDs is the complete record id list of the new version, ascending.
	RIDs []vgraph.RecordID
	// Set is RIDs as a compressed set, built once per commit. The CVD keeps it
	// as the version's record set, which split-by-rlist reads as the version's
	// rlist; the other models ignore it. Nobody mutates it.
	Set *recset.Set
	// Records is the CVD's record catalog: the rid column, then the data
	// attributes under the schema in force, record r at row r-1. It already
	// holds the version's new records, and a model takes the content of any
	// record — new or inherited — from it column-wise (Table.AppendFrom). For
	// split-by-rlist it is the model's own data table.
	Records *relstore.Table
	// New is how many records the version adds to physical storage: the last
	// New entries of RIDs, which are the last New rows of Records.
	New int
}

// positions returns the catalog positions of rids (record r is row r-1).
func positions(rids []vgraph.RecordID) relstore.Selection {
	sel := make(relstore.Selection, len(rids))
	for i, r := range rids {
		sel[i] = int32(r - 1)
	}
	return sel
}

// DataModel is the physical-storage strategy behind a CVD. Implementations
// live entirely inside a relstore.Database so their storage and I/O costs
// are measured by the substrate.
type DataModel interface {
	// Kind identifies the model.
	Kind() ModelKind
	// Init creates the model's backing tables for a CVD with the given data
	// schema (no rid column) and loads the initial version.
	Init(req CommitRequest) error
	// AppendVersion adds a committed version to storage.
	AppendVersion(req CommitRequest) error
	// Checkout materializes a single version as a fresh table named
	// tableName containing an rid column followed by the data attributes.
	Checkout(v vgraph.VersionID, tableName string) (*relstore.Table, error)
	// StorageBytes returns the accounted storage footprint of the model.
	StorageBytes() int64
	// AlterSchema evolves the data schema (single-pool evolution): columns
	// may be added and column types generalized. Existing records keep NULL
	// in new columns.
	AlterSchema(newSchema relstore.Schema) error
	// Drop removes all backing tables.
	Drop()
}

// ridColumn is the name of the synthetic record-id column in data tables and
// checkout results.
const ridColumn = "rid"

// vidColumn names the version id attribute of a versioning table, vlistColumn
// the vlist array of split-by-vlist and combined-table.
const (
	vidColumn   = "vid"
	vlistColumn = "vlist"
)

// dataSchemaWithRID prepends the rid column to the data schema and makes rid
// the physical primary key (the relation primary key only holds within a
// version, so it cannot index the shared data table).
func dataSchemaWithRID(data relstore.Schema) relstore.Schema {
	cols := make([]relstore.Column, 0, len(data.Columns)+1)
	cols = append(cols, relstore.Column{Name: ridColumn, Type: relstore.TypeInt})
	cols = append(cols, data.Columns...)
	return relstore.MustSchema(cols, ridColumn)
}

// alterTable evolves a table holding the data attributes to newSchema the way
// single-pool evolution does (Section 4.3): missing columns are added, NULL in
// every existing row, and in a column whose type was generalized exactly the
// cells canonical casts are cast (relstore.Table.GeneralizeColumn), so that
// no record changes but by being brought to the form the new schema stores
// it in.
func alterTable(t *relstore.Table, newSchema relstore.Schema) error {
	for _, c := range newSchema.Columns {
		idx := t.Schema.ColumnIndex(c.Name)
		if idx < 0 {
			if err := t.AddColumn(c); err != nil {
				return err
			}
		} else if t.Schema.Columns[idx].Type != c.Type {
			if err := t.GeneralizeColumn(c.Name, c.Type); err != nil {
				return err
			}
		}
	}
	return nil
}

// newModel constructs a data model of the requested kind for c, backed by
// c's database, with table names prefixed by the CVD name. Split-by-rlist
// adopts c's record catalog as its data table and c's record sets as its
// versioning table.
func newModel(kind ModelKind, c *CVD) (DataModel, error) {
	switch kind {
	case SplitByRlist:
		return newRlistModel(c), nil
	case SplitByVlist:
		return newVlistModel(c.db, c.name, c.schema), nil
	case CombinedTable:
		return newCombinedModel(c.db, c.name, c.schema), nil
	case TablePerVersion:
		return newTPVModel(c.db, c.name, c.schema), nil
	case DeltaBased:
		return newDeltaModel(c.db, c.name, c.schema), nil
	default:
		return nil, fmt.Errorf("cvd: unknown data model %d", int(kind))
	}
}
