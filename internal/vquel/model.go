// Package vquel implements VQuel, the generalized query language of
// Chapter 6: a Quel/GEM-style language for querying dataset versions, their
// metadata, the data inside them, version-graph traversals (P/D/N), and
// record-level provenance, independent of SQL.
//
// The package contains the conceptual data model of Figure 6.1 (Repository /
// Version / Relation / Record), a lexer and parser for the VQuel surface
// syntax, and an evaluator. Aggregates (count, sum, avg, min, max) are
// grouped implicitly by the iterators that appear outside the aggregate, as
// in the chapter's examples.
package vquel

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cvd"
	"repro/internal/recset"
	"repro/internal/relstore"
)

// Version is a node of the conceptual data model: a commit with metadata and
// a set of named relations.
type Version struct {
	ID        string
	Author    string
	Message   string
	CommitTS  time.Time
	Parents   []*Version
	Children  []*Version
	Relations map[string]*Relation
}

// Relation is a named table inside a version: the records of a catalog that a
// record set names, one tuple per record, in record id order. A tuple's `id`
// is its ordinal there. Relations of a CVD share the CVD's record catalog, so
// a query reads the store rather than a copy of it.
type Relation struct {
	Name string
	// Changed records whether the relation differs from the same-named
	// relation in the parent version.
	Changed bool
	// Catalog holds the records, read only: its first column is the record
	// id, which is not an attribute of the tuples, and row r-1 holds record r.
	Catalog *relstore.Table
	// Records names the relation's tuples by record id.
	Records *recset.Set
	// Provenance maps a row index of this relation to the row indexes of the
	// parent version's same-named relation it was derived from (record-level
	// provenance, when available).
	Provenance map[int][]int
}

// column returns the catalog column of a tuple attribute, -1 for none: the
// record id column is not one.
func (r *Relation) column(name string) int {
	if i := r.Catalog.Schema.ColumnIndex(name); i > 0 {
		return i
	}
	return -1
}

// Repository is the queryable universe: all versions keyed by id.
type Repository struct {
	versions map[string]*Version
	order    []string
}

// NewRepository creates an empty repository.
func NewRepository() *Repository {
	return &Repository{versions: make(map[string]*Version)}
}

// AddVersion registers a version; parents must already be registered.
func (r *Repository) AddVersion(v *Version, parentIDs ...string) error {
	if v == nil || v.ID == "" {
		return fmt.Errorf("vquel: version must have an id")
	}
	if _, dup := r.versions[v.ID]; dup {
		return fmt.Errorf("vquel: version %q already exists", v.ID)
	}
	if v.Relations == nil {
		v.Relations = make(map[string]*Relation)
	}
	for _, pid := range parentIDs {
		p, ok := r.versions[pid]
		if !ok {
			return fmt.Errorf("vquel: parent version %q not found", pid)
		}
		v.Parents = append(v.Parents, p)
		p.Children = append(p.Children, v)
	}
	r.versions[v.ID] = v
	r.order = append(r.order, v.ID)
	return nil
}

// Version returns a version by id.
func (r *Repository) Version(id string) (*Version, bool) {
	v, ok := r.versions[id]
	return v, ok
}

// Versions returns all versions in registration order.
func (r *Repository) Versions() []*Version {
	out := make([]*Version, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.versions[id])
	}
	return out
}

// ancestors returns all ancestors within maxHops (0 = unlimited), excluding v.
func (v *Version) ancestors(maxHops int) []*Version {
	return v.walk(maxHops, func(x *Version) []*Version { return x.Parents })
}

// descendants returns all descendants within maxHops, excluding v.
func (v *Version) descendants(maxHops int) []*Version {
	return v.walk(maxHops, func(x *Version) []*Version { return x.Children })
}

// neighborhood returns versions within maxHops in either direction.
func (v *Version) neighborhood(maxHops int) []*Version {
	return v.walk(maxHops, func(x *Version) []*Version {
		out := make([]*Version, 0, len(x.Parents)+len(x.Children))
		out = append(out, x.Parents...)
		out = append(out, x.Children...)
		return out
	})
}

func (v *Version) walk(maxHops int, next func(*Version) []*Version) []*Version {
	type qe struct {
		v    *Version
		hops int
	}
	seen := map[*Version]bool{v: true}
	var out []*Version
	queue := []qe{{v, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if maxHops > 0 && cur.hops >= maxHops {
			continue
		}
		for _, nb := range next(cur.v) {
			if seen[nb] {
				continue
			}
			seen[nb] = true
			out = append(out, nb)
			queue = append(queue, qe{nb, cur.hops + 1})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FromCVD builds a single-relation repository from a CVD: every version of
// the CVD becomes a repository version whose one relation (named after the
// CVD) holds that version's records. The relations are the CVD's record
// catalog and each version's record set, taken by one consistent read
// (cvd.Snapshot): no record is copied, and a query reads only the records it
// touches.
func FromCVD(c *cvd.CVD) (*Repository, error) {
	catalog, versions, err := c.Snapshot()
	if err != nil {
		return nil, err
	}
	repo := NewRepository()
	for _, vs := range versions {
		meta := vs.Meta
		v := &Version{
			ID:        fmt.Sprintf("v%d", meta.ID),
			Author:    meta.Author,
			Message:   meta.Message,
			CommitTS:  meta.CommitAt,
			Relations: map[string]*Relation{c.Name(): {Name: c.Name(), Changed: true, Catalog: catalog, Records: vs.Records}},
		}
		parentIDs := make([]string, 0, len(meta.Parents))
		for _, p := range meta.Parents {
			parentIDs = append(parentIDs, fmt.Sprintf("v%d", p))
		}
		if err := repo.AddVersion(v, parentIDs...); err != nil {
			return nil, err
		}
	}
	return repo, nil
}
