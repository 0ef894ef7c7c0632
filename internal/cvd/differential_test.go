package cvd

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// The differential test drives two CVDs through one generated history — raw
// commits, and checkouts edited through every staging-table mutator — one
// committing through the live path (dirty rows, record index), the twin through
// the retained reference (reference_test.go). After every step both must have
// accepted or refused alike and hold the same version: same record ids, same
// new records, same checkout, same schema. And after every commit, accepted or
// refused, every earlier version checks out on the live side as it did before
// it, but for the casts the reference makes when a commit generalizes a column
// (canonical).

// chooser makes the generator's choices: from the fuzzer's bytes while they
// last, then from a seeded source.
type chooser struct {
	script []byte
	rng    *rand.Rand
}

func (c *chooser) intn(n int) int {
	if len(c.script) > 0 {
		b := c.script[0]
		c.script = c.script[1:]
		return int(b) % n
	}
	return c.rng.Intn(n)
}

// twins is the pair of CVDs and the generator's state.
type twins struct {
	t      *testing.T
	ch     *chooser
	live   *CVD
	ref    *CVD
	withPK bool
	key    int64 // last primary-key value handed out
	added  int   // columns added so far

	// seen holds version v's live checkout at v-1, as it read after the
	// latest commit.
	seen []checkedOut
}

// checkedOut is a checkout's rows and its columns' types.
type checkedOut struct {
	rows  []relstore.Row
	types []relstore.ValueType
}

var diffTypes = []relstore.ValueType{relstore.TypeInt, relstore.TypeFloat, relstore.TypeString}

// value draws a cell of a column type from the values on which typed and
// rendered identity agree (see reference_test.go): small integers, halves,
// non-empty strings without control bytes, and NULL.
func (w *twins) value(typ relstore.ValueType) relstore.Value {
	if w.ch.intn(8) == 0 {
		return relstore.Null()
	}
	switch typ {
	case relstore.TypeInt:
		return relstore.Int(int64(w.ch.intn(1000)))
	case relstore.TypeFloat:
		return relstore.Float(float64(w.ch.intn(2000)) / 2)
	default:
		return relstore.Str("s" + strconv.Itoa(w.ch.intn(50)))
	}
}

func (w *twins) schemaOf(cols []relstore.Column) relstore.Schema {
	if w.withPK {
		return relstore.MustSchema(cols, "k")
	}
	return relstore.MustSchema(cols)
}

// newRow draws a row of schema (k first) under a fresh key.
func (w *twins) newRow(s relstore.Schema) relstore.Row {
	w.key++
	row := relstore.Row{relstore.Int(w.key)}
	for _, col := range s.Columns[1:] {
		row = append(row, w.value(col.Type))
	}
	return row
}

func newTwins(t *testing.T, ch *chooser, model ModelKind, withPK bool, workers int) *twins {
	w := &twins{t: t, ch: ch, withPK: withPK}
	schema := w.schemaOf([]relstore.Column{
		{Name: "k", Type: relstore.TypeInt},
		{Name: "a", Type: relstore.TypeInt},
		{Name: "b", Type: relstore.TypeFloat},
		{Name: "s", Type: relstore.TypeString},
	})
	rows := make([]relstore.Row, 6+ch.intn(10))
	for i := range rows {
		rows[i] = w.newRow(schema)
	}
	var err error
	opts := func() Options { return Options{Model: model, Workers: workers, Clock: fixedClock()} }
	if w.live, err = Init(relstore.NewDatabase("live"), "d", schema, rows, opts()); err != nil {
		t.Fatal(err)
	}
	if w.ref, err = Init(relstore.NewDatabase("ref"), "d", schema, rows, opts()); err != nil {
		t.Fatal(err)
	}
	w.seen = []checkedOut{w.liveRows(1)}
	return w
}

// liveRows returns the live side's checkout of version v.
func (w *twins) liveRows(v vgraph.VersionID) checkedOut {
	w.t.Helper()
	tab, err := w.live.Checkout([]vgraph.VersionID{v}, "again")
	if err != nil {
		w.t.Fatalf("checkout of version %d: %v", v, err)
	}
	defer w.live.DiscardCheckout("again")
	out := checkedOut{rows: tab.Rows()}
	for _, col := range tab.Schema.Columns {
		out.types = append(out.types, col.Type)
	}
	return out
}

// unchanged checks that every version the live side held before a commit
// checks out as it did then: each cell as it was, or as canonical casts it to
// its column's type now, and a column added since NULL.
func (w *twins) unchanged(step string) {
	w.t.Helper()
	for i, was := range w.seen {
		v := vgraph.VersionID(i + 1)
		now := w.liveRows(v)
		if len(now.rows) != len(was.rows) {
			w.t.Fatalf("%s: version %d checks out %d rows, %d before", step, v, len(now.rows), len(was.rows))
		}
		for r, row := range now.rows {
			old := was.rows[r]
			if len(row) < len(old) {
				w.t.Fatalf("%s: version %d row %d has %d cells, %d before", step, v, r, len(row), len(old))
			}
			for j, cell := range row {
				want := null
				if j < len(old) {
					want = *canonical(&old[j], now.types[j], &want)
				}
				if !cell.Identical(want) {
					w.t.Fatalf("%s: version %d row %d cell %d reads %v, want %v as before the commit", step, v, r, j, cell, want)
				}
			}
		}
		w.seen[i] = now
	}
}

// pickVersions draws one version, or two distinct ones for a merge.
func (w *twins) pickVersions() []vgraph.VersionID {
	all := w.live.Versions()
	first := all[w.ch.intn(len(all))]
	if len(all) == 1 || w.ch.intn(3) != 0 {
		return []vgraph.VersionID{first}
	}
	second := all[w.ch.intn(len(all))]
	if second == first {
		return []vgraph.VersionID{first}
	}
	return []vgraph.VersionID{first, second}
}

// dataRows returns the rows of some versions, merged as Checkout merges them,
// without the rid.
func (w *twins) dataRows(versions []vgraph.VersionID) []relstore.Row {
	tab, err := w.live.Checkout(versions, "rows")
	if err != nil {
		w.t.Fatal(err)
	}
	defer w.live.DiscardCheckout("rows")
	rows := tab.Rows()
	for i, r := range rows {
		rows[i] = r[1:]
	}
	return rows
}

// rawStep commits caller rows on both sides: a parent's rows churned, now and
// then under an evolved schema.
func (w *twins) rawStep() {
	parents := w.pickVersions()
	s := w.live.Schema()
	if w.ch.intn(4) == 0 {
		cols := append([]relstore.Column(nil), s.Columns...)
		if w.ch.intn(2) == 0 {
			w.added++
			cols = append(cols, relstore.Column{Name: fmt.Sprintf("e%d", w.added), Type: diffTypes[w.ch.intn(len(diffTypes))]})
		} else if i := 1 + w.ch.intn(len(cols)-1); cols[i].Type == relstore.TypeInt && w.ch.intn(2) == 0 {
			cols[i].Type = relstore.TypeFloat
		} else {
			cols[i].Type = relstore.TypeString
		}
		s = w.schemaOf(cols)
	}
	var rows []relstore.Row
	for _, r := range w.dataRows(parents) {
		for len(r) < len(s.Columns) {
			r = append(r, relstore.Null())
		}
		switch w.ch.intn(5) {
		case 0: // dropped
		case 1: // updated: same key, new content
			i := 1 + w.ch.intn(len(r)-1)
			r[i] = w.value(s.Columns[i].Type)
			rows = append(rows, r)
		case 2: // staged twice
			rows = append(rows, r, r.Clone())
		default:
			rows = append(rows, r)
		}
	}
	for i := w.ch.intn(4); i > 0 || len(rows) == 0; i-- { // never empty: not every model checks an empty version out
		rows = append(rows, w.newRow(s))
	}
	w.ch.rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	before := w.live.nextRID
	vl, errL := w.live.Commit(parents, rows, s, "raw", "diff")
	vr, errR := w.ref.refCommit(parents, rows, s, "raw", "diff")
	w.compare(fmt.Sprintf("raw commit on %v", parents), before, vl, errL, vr, errR)
}

// tableStep checks the same versions out on both sides, applies the same
// edits to both staging tables and commits them.
func (w *twins) tableStep() {
	versions := w.pickVersions()
	if !w.withPK {
		// Without a key two parents can each hold a record of one content (the
		// same edit made on two branches). Merged, both rows are checked out,
		// and an untouched one keeps its own rid where the reference gives it
		// the first parent's: the pinned difference again, across versions.
		// Keyless merges are compared through rawStep.
		versions = versions[:1]
	}
	tl, err := w.live.Checkout(versions, "w")
	if err != nil {
		w.t.Fatal(err)
	}
	tr, err := w.ref.Checkout(versions, "w")
	if err != nil {
		w.t.Fatal(err)
	}
	var log []string
	for i := w.ch.intn(6); i > 0; i-- {
		name, edit := w.drawEdit(tl)
		log = append(log, name)
		edit(tl)
		edit(tr)
	}
	if !w.withPK {
		// Two staged rows of equal content: the reference keeps one record,
		// the live path keeps each untouched row's own (pinned by
		// TestCommitTableKeepsEqualContentRecords). Not comparable, so out —
		// which also keeps every version free of such pairs.
		for _, t := range []*relstore.Table{tl, tr} {
			seen := make(map[string]bool)
			t.DeleteWhere(func(r relstore.Row) bool {
				cells := make([]string, len(r)-1)
				for i, v := range r[1:] {
					cells[i] = v.AsString()
				}
				key := strings.Join(cells, "\x1f")
				dup := seen[key]
				seen[key] = true
				return dup
			})
		}
	}
	before := w.live.nextRID
	vl, errL := w.live.CommitTable("w", "table", "diff")
	vr, errR := w.ref.refCommitTable("w", "table", "diff")
	if errL != nil {
		w.live.DiscardCheckout("w")
	}
	if errR != nil {
		w.ref.DiscardCheckout("w")
	}
	w.compare(fmt.Sprintf("checkout of %v edited by %v", versions, log), before, vl, errL, vr, errR)
}

// drawEdit draws one staging-table edit, returned with its name so that it can
// be applied to both twins' tables.
func (w *twins) drawEdit(t *relstore.Table) (string, func(*relstore.Table)) {
	n, cols := t.Len(), t.Schema.Columns
	if n == 0 {
		return "nothing", func(*relstore.Table) {}
	}
	dataCol := func() int { return 1 + w.ch.intn(len(cols)-1) }
	aIdx := t.Schema.ColumnIndex("a")
	residue := func() func(relstore.Row) bool {
		m := int64(2 + w.ch.intn(3))
		x := int64(w.ch.intn(int(m)))
		return func(r relstore.Row) bool { return r[aIdx].AsInt()%m == x }
	}
	switch w.ch.intn(12) {
	case 0:
		row, col := w.ch.intn(n), dataCol()
		v := w.value(cols[col].Type)
		return "Set", func(t *relstore.Table) { t.Set(row, col, v) }
	case 1:
		row, rid := w.ch.intn(n), t.At(w.ch.intn(n), 0)
		if w.ch.intn(2) == 0 {
			rid = relstore.Int(int64(1_000_000 + w.ch.intn(100)))
		}
		return "Set(rid)", func(t *relstore.Table) { t.Set(row, 0, rid) }
	case 2:
		pred, col := residue(), dataCol()
		v := w.value(cols[col].Type)
		return "UpdateWhere", func(t *relstore.Table) {
			if _, err := t.UpdateWhere(pred, func(r relstore.Row) relstore.Row { r[col] = v; return r }); err != nil {
				w.t.Fatal(err)
			}
		}
	case 3:
		data := relstore.Schema{Columns: cols[1:]}
		row := append(relstore.Row{relstore.Int(-w.key - 1)}, w.newRow(data)...)
		return "Insert", func(t *relstore.Table) { _ = t.Insert(row) } // a forged rid may collide
	case 4:
		w.key++
		row := relstore.Row{relstore.Null(), relstore.Int(w.key)}
		return "AppendRow", func(t *relstore.Table) { t.AppendRow(row) }
	case 5:
		if n <= 3 {
			break
		}
		pred := residue()
		return "DeleteWhere", func(t *relstore.Table) {
			kept := 0
			t.DeleteWhere(func(r relstore.Row) bool { // but never every row: not every model checks an empty version out
				if !pred(r) {
					kept++
				}
				return pred(r) && kept > 0
			})
		}
	case 6:
		if n <= 3 {
			break
		}
		to := n - 1 - w.ch.intn(2)
		return "Shrink", func(t *relstore.Table) { t.Shrink(to) }
	case 7:
		by := []string{"a", "s", "k"}[w.ch.intn(3)]
		// An error is the rid index refusing a forged duplicate; the rows are sorted by then.
		return "SortBy", func(t *relstore.Table) { _ = t.SortBy(relstore.ClusterNone, by) }
	case 8:
		w.added++
		col := relstore.Column{Name: fmt.Sprintf("e%d", w.added), Type: diffTypes[w.ch.intn(len(diffTypes))]}
		return "AddColumn", func(t *relstore.Table) {
			if err := t.AddColumn(col); err != nil {
				w.t.Fatal(err)
			}
		}
	case 9:
		col := dataCol()
		if cols[col].Name == "k" {
			break
		}
		typ := diffTypes[w.ch.intn(len(diffTypes))]
		if cols[col].Type == relstore.TypeString {
			break // narrowing a string is the one cast that changes what a cell renders as
		}
		return "AlterColumnType", func(t *relstore.Table) {
			if err := t.AlterColumnType(cols[col].Name, typ); err != nil {
				w.t.Fatal(err)
			}
		}
	case 10:
		from, to := w.ch.intn(n), w.ch.intn(n)
		return "copy row", func(t *relstore.Table) { // update to equal another record
			for col := 1; col < len(cols); col++ {
				t.Set(to, col, t.At(from, col))
			}
		}
	}
	return "nothing", func(*relstore.Table) {}
}

func sameRows(a, b []relstore.Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows, reference has %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d: %d cells, reference has %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if !a[i][j].Identical(b[i][j]) {
				return fmt.Errorf("row %d cell %d: %v (%v), reference has %v (%v)", i, j, a[i][j], a[i][j].Type, b[i][j], b[i][j].Type)
			}
		}
	}
	return nil
}

// compare checks one step's outcome on the twins.
func (w *twins) compare(step string, before vgraph.RecordID, vl vgraph.VersionID, errL error, vr vgraph.VersionID, errR error) {
	w.t.Helper()
	if (errL == nil) != (errR == nil) {
		w.t.Fatalf("%s: live path: %v; reference: %v", step, errL, errR)
	}
	if !w.live.Schema().Equal(w.ref.Schema()) {
		w.t.Fatalf("%s: schema (%s), reference has (%s)", step, w.live.Schema(), w.ref.Schema())
	}
	if w.live.nextRID != w.ref.nextRID {
		w.t.Fatalf("%s: next record id %d, reference has %d", step, w.live.nextRID, w.ref.nextRID)
	}
	w.unchanged(step)
	if errL != nil {
		if w.live.nextRID != before {
			w.t.Fatalf("%s: refused (%v) but took record ids", step, errL)
		}
		return
	}
	if vl != vr {
		w.t.Fatalf("%s: version %d, reference has %d", step, vl, vr)
	}
	if got, want := w.live.RecordsOf(vl), w.ref.RecordsOf(vr); !slices.Equal(got, want) {
		w.t.Fatalf("%s: version %d holds records %v, reference has %v", step, vl, got, want)
	}
	for rid := before; rid < w.live.nextRID; rid++ {
		got, _ := w.live.RecordContent(rid)
		want, _ := w.ref.RecordContent(rid)
		if err := sameRows([]relstore.Row{got}, []relstore.Row{want}); err != nil {
			w.t.Fatalf("%s: new record %d: %v", step, rid, err)
		}
	}
	tl, err := w.live.Checkout([]vgraph.VersionID{vl}, "cmp")
	if err != nil {
		w.t.Fatalf("%s: %v", step, err)
	}
	tr, err := w.ref.Checkout([]vgraph.VersionID{vr}, "cmp")
	if err != nil {
		w.t.Fatalf("%s: reference: %v", step, err)
	}
	if err := sameRows(tl.Rows(), tr.Rows()); err != nil {
		w.t.Fatalf("%s: checkout of version %d: %v", step, vl, err)
	}
	w.live.DiscardCheckout("cmp")
	w.ref.DiscardCheckout("cmp")
	w.seen = append(w.seen, w.liveRows(vl))
}

func (w *twins) run(steps int) {
	for i := 0; i < steps; i++ {
		if w.ch.intn(3) == 0 {
			w.rawStep()
		} else {
			w.tableStep()
		}
	}
}

func TestCommitEqualsReference(t *testing.T) {
	for _, model := range allModels {
		for _, withPK := range []bool{true, false} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/pk=%v/workers=%d", model, withPK, workers), func(t *testing.T) {
					for seed := int64(1); seed <= 6; seed++ {
						ch := &chooser{rng: rand.New(rand.NewSource(seed))}
						newTwins(t, ch, model, withPK, workers).run(14)
					}
				})
			}
		}
	}
}

// FuzzCommitEqualsReference lets the fuzzer script the generator's choices.
func FuzzCommitEqualsReference(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{})
	f.Add(int64(2), uint8(7), []byte{3, 1, 0, 9, 9, 4, 10, 2, 2, 7, 5, 1, 8})
	f.Add(int64(3), uint8(12), []byte{1, 1, 5, 10, 10, 10, 0, 6, 7, 200, 13, 9, 1, 1, 2})
	f.Fuzz(func(t *testing.T, seed int64, config uint8, script []byte) {
		ch := &chooser{script: script, rng: rand.New(rand.NewSource(seed))}
		model := allModels[int(config)%len(allModels)]
		workers := 1
		if config&16 != 0 {
			workers = 4
		}
		newTwins(t, ch, model, config&8 != 0, workers).run(8)
	})
}
