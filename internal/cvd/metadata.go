package cvd

import (
	"fmt"
	"time"

	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// VersionMeta is one row of the metadata table (Figure 4.2a): the
// version-level provenance OrpheusDB's version manager maintains.
type VersionMeta struct {
	ID         vgraph.VersionID
	Parents    []vgraph.VersionID
	CheckoutAt time.Time
	CommitAt   time.Time
	Message    string
	Author     string
	// Attributes lists the attribute ids (into the attribute registry)
	// present in this version's schema.
	Attributes []AttrID
	// NumRecords is |R(v)|.
	NumRecords int64
}

// AttrID identifies an entry of the attribute table. Any change to an
// attribute's name or type creates a new entry (Section 4.3).
type AttrID int64

// Attribute is one row of the attribute table (Figure 4.3b/c).
type Attribute struct {
	ID   AttrID
	Name string
	Type relstore.ValueType
}

// AttributeRegistry is the attribute table plus the CVD's current
// (generalized, single-pool) schema.
type AttributeRegistry struct {
	attrs  []Attribute
	byID   map[AttrID]int
	nextID AttrID
}

// NewAttributeRegistry creates an empty registry.
func NewAttributeRegistry() *AttributeRegistry {
	return &AttributeRegistry{byID: make(map[AttrID]int), nextID: 1}
}

// Register records an attribute with the given name and type, returning its
// id. If an identical (name, type) attribute already exists its id is
// reused; a changed type for an existing name creates a new attribute entry.
func (r *AttributeRegistry) Register(name string, typ relstore.ValueType) AttrID {
	for _, a := range r.attrs {
		if a.Name == name && a.Type == typ {
			return a.ID
		}
	}
	id := r.nextID
	r.nextID++
	r.byID[id] = len(r.attrs)
	r.attrs = append(r.attrs, Attribute{ID: id, Name: name, Type: typ})
	return id
}

// Lookup returns the attribute for an id.
func (r *AttributeRegistry) Lookup(id AttrID) (Attribute, bool) {
	i, ok := r.byID[id]
	if !ok {
		return Attribute{}, false
	}
	return r.attrs[i], true
}

// All returns all registered attributes in registration order.
func (r *AttributeRegistry) All() []Attribute {
	out := make([]Attribute, len(r.attrs))
	copy(out, r.attrs)
	return out
}

// RegisterSchema registers every column of a schema and returns the ordered
// attribute ids.
func (r *AttributeRegistry) RegisterSchema(s relstore.Schema) []AttrID {
	out := make([]AttrID, 0, len(s.Columns))
	for _, c := range s.Columns {
		out = append(out, r.Register(c.Name, c.Type))
	}
	return out
}

// metadataStore is the metadata table: the per-version metadata, version v's
// at metas[v-1], held once. The database accounts for it under the table's
// name, <cvd>_metadata, as what the eight-column table (vid, parents,
// checkout_ts, commit_ts, msg, author, attributes, num_records) indexed on vid
// would be charged (StorageBytes). metas is only appended to, so the published
// states share it.
type metadataStore struct {
	db    *relstore.Database
	name  string
	metas []*VersionMeta
}

// newMetadataStore registers the metadata table of CVD cvdName holding metas,
// refusing a name db already holds.
func newMetadataStore(db *relstore.Database, cvdName string, metas []*VersionMeta) (*metadataStore, error) {
	s := &metadataStore{db: db, name: cvdName + "_metadata", metas: metas}
	if db.HasTable(s.name) {
		return nil, fmt.Errorf("cvd: %s: table %q already exists", cvdName, s.name)
	}
	db.AttachRelation(s.name, s)
	return s, nil
}

func (s *metadataStore) add(m *VersionMeta) error {
	if want := vgraph.VersionID(len(s.metas) + 1); m.ID != want {
		return fmt.Errorf("cvd: metadata for version %d where version %d comes next", m.ID, want)
	}
	s.metas = append(s.metas, m)
	return nil
}

// StorageBytes charges each version its row's eight cells and its vid's index
// entry, as relstore accounts them.
func (s *metadataStore) StorageBytes() int64 {
	var n int64
	for _, m := range s.metas {
		n += 4*relstore.CellBytes(relstore.TypeInt, 0) + // vid, checkout_ts, commit_ts, num_records
			relstore.CellBytes(relstore.TypeIntArray, len(m.Parents)) +
			relstore.CellBytes(relstore.TypeIntArray, len(m.Attributes)) +
			relstore.CellBytes(relstore.TypeString, len(m.Message)) +
			relstore.CellBytes(relstore.TypeString, len(m.Author)) +
			relstore.IndexEntryBytes
	}
	return n
}

func (s *metadataStore) drop() { s.db.DropTable(s.name) }
