package relstore

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Database is a named collection of tables sharing one cost-statistics
// collector. It plays the role of a PostgreSQL database in OrpheusDB: the
// versioning middleware stores CVD data tables, versioning tables, metadata
// tables, and checked-out staging tables in it. A relation kept outside any
// Table — split-by-rlist's versioning table, whose rlists are the version
// graph's compressed record sets — is registered as a Relation under its name:
// it shares the table namespace and StorageBytes counts it, but Table does not
// return it.
type Database struct {
	mu        sync.RWMutex
	name      string
	tables    map[string]*Table
	relations map[string]Relation
	stats     CostStats
}

// Relation is a relation a Database accounts for without holding its rows.
type Relation interface {
	// StorageBytes returns the bytes the relation would take as a table.
	StorageBytes() int64
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{name: name, tables: make(map[string]*Table), relations: make(map[string]Relation)}
}

// Name returns the database name.
func (d *Database) Name() string { return d.name }

// CreateTable creates a new table with the given schema; it is an error if a
// table with the same name exists.
func (d *Database) CreateTable(name string, schema Schema) (*Table, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.hasLocked(name) {
		return nil, fmt.Errorf("relstore: table %q already exists", name)
	}
	t := NewTable(name, schema)
	t.SetStats(&d.stats)
	d.tables[name] = t
	return t, nil
}

// AttachTable registers an existing table under its name, replacing any
// previous table or relation with that name (used by the migration engine when
// swapping partitions).
func (d *Database) AttachTable(t *Table) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t.SetStats(&d.stats)
	delete(d.relations, t.Name)
	d.tables[t.Name] = t
}

// AttachRelation registers r under name, replacing any previous table or
// relation with that name.
func (d *Database) AttachRelation(name string, r Relation) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.tables, name)
	d.relations[name] = r
}

// Table returns a table by name.
func (d *Database) Table(name string) (*Table, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tables[name]
	return t, ok
}

// MustTable returns a table by name, panicking if it does not exist.
func (d *Database) MustTable(name string) *Table {
	t, ok := d.Table(name)
	if !ok {
		panic(fmt.Sprintf("relstore: table %q does not exist", name))
	}
	return t
}

// DropTable removes a table or relation; dropping a missing one is not an
// error.
func (d *Database) DropTable(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.tables, name)
	delete(d.relations, name)
}

// HasTable reports whether a table or relation of that name exists.
func (d *Database) HasTable(name string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.hasLocked(name)
}

func (d *Database) hasLocked(name string) bool {
	_, table := d.tables[name]
	_, relation := d.relations[name]
	return table || relation
}

// TableNames returns the sorted names of all tables and relations.
func (d *Database) TableNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	names := make([]string, 0, len(d.tables)+len(d.relations))
	for n := range d.tables {
		names = append(names, n)
	}
	for n := range d.relations {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// StorageBytes returns the accounted total size of all tables and relations.
func (d *Database) StorageBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var n int64
	for _, t := range d.tables {
		n += t.StorageBytes()
	}
	for _, r := range d.relations {
		n += r.StorageBytes()
	}
	return n
}

// Stats returns a snapshot of the accumulated cost counters, safe to take
// while concurrent operations are still accumulating into them.
func (d *Database) Stats() CostStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.stats.Snapshot()
}

// ResetStats zeroes the cost counters.
func (d *Database) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Reset()
}

// WriteCSV writes a table to w as CSV with a header row, the format used by
// `checkout -f` / `commit -f` in OrpheusDB's data-science workflow support.
func WriteCSV(w io.Writer, t *Table) error {
	cw := csv.NewWriter(bufio.NewWriter(w))
	if err := cw.Write(t.Schema.ColumnNames()); err != nil {
		return err
	}
	rec := make([]string, len(t.Schema.Columns))
	for i := 0; i < t.Len(); i++ {
		for j := range rec {
			rec[j] = t.StringAt(i, j)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a CSV stream with a header row into a new table using the
// provided schema. Columns are matched by name; missing columns become NULL.
// Values are coerced to the schema's declared types.
func ReadCSV(r io.Reader, name string, schema Schema) (*Table, error) {
	cr := csv.NewReader(bufio.NewReader(r))
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relstore: reading CSV header: %w", err)
	}
	colOf := make([]int, len(schema.Columns)) // schema column -> csv field index or -1
	for i, c := range schema.Columns {
		colOf[i] = -1
		for j, h := range header {
			if h == c.Name {
				colOf[i] = j
				break
			}
		}
	}
	t := NewTable(name, schema)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relstore: reading CSV record: %w", err)
		}
		row := make(Row, len(schema.Columns))
		for i := range schema.Columns {
			j := colOf[i]
			if j < 0 || j >= len(rec) {
				row[i] = Null()
				continue
			}
			row[i] = CoerceString(rec[j], schema.Columns[i].Type)
		}
		if err := t.Insert(row); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// CoerceString converts a textual cell into a Value of the requested type.
// Unparseable values become NULL rather than erroring, matching the lenient
// CSV ingestion of the original system.
func CoerceString(s string, t ValueType) Value {
	if s == "" {
		return Null()
	}
	switch t {
	case TypeInt:
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return Int(n)
		}
		return Null()
	case TypeFloat:
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return Float(f)
		}
		return Null()
	case TypeBool:
		if b, err := strconv.ParseBool(s); err == nil {
			return Bool(b)
		}
		return Null()
	case TypeIntArray:
		return Null()
	default:
		return Str(s)
	}
}
