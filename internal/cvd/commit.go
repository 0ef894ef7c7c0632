package cvd

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/recset"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// This file is the live commit path. There is one: Commit stages caller rows,
// CommitTable stages a checked-out table, and buildCommit resolves whatever
// was staged against the record index (recindex.go) — so a commit costs the
// rows it has to look at plus what is 8 bytes per record of the version (the
// record id list, its order, its compressed set), never a pass over the
// parents' contents.

// staged is what one commit stages: rows to resolve by content and the record
// ids of rows known to be unchanged records of the parents.
type staged struct {
	schema relstore.Schema // data attributes of the rows to resolve
	rows   int             // how many there are
	// row returns the r-th of them, in schema order, for reading only; buf,
	// len(schema.Columns) long, is backing it may use.
	row  func(r int, buf relstore.Row) relstore.Row
	kept []vgraph.RecordID // records carried over unread; owned by the commit
}

// stageRows stages rows handed to Commit: every one is resolved.
func (c *CVD) stageRows(rows []relstore.Row, schema relstore.Schema) (staged, error) {
	for _, r := range rows {
		if len(r) != len(schema.Columns) {
			return staged{}, fmt.Errorf("cvd: %s: row has %d values but schema has %d columns", c.name, len(r), len(schema.Columns))
		}
	}
	return staged{schema: schema, rows: len(rows), row: func(r int, _ relstore.Row) relstore.Row { return rows[r] }}, nil
}

// stageTable stages a staging table straight off its column lanes. A row
// nobody wrote to since checkout (relstore.Table.DirtyRows) keeps the record
// id in its rid cell — checked against the parents' record sets, its content
// never read — and only written and added rows are resolved. ridTrusted is
// false for a table that is not the one Checkout produced; all of its rows are
// resolved, as are those of a table without a rid column. The caller holds
// c.mu.
func (c *CVD) stageTable(t *relstore.Table, ridTrusted bool, parents []vgraph.VersionID) (staged, error) {
	ridCol := -1
	cols := make([]int, 0, len(t.Schema.Columns)) // staging-table position of each data attribute
	data := make([]relstore.Column, 0, len(t.Schema.Columns))
	for j, col := range t.Schema.Columns {
		if col.Name == ridColumn {
			ridCol = j
			continue
		}
		cols = append(cols, j)
		data = append(data, col)
	}
	st := staged{schema: relstore.Schema{Columns: data}}
	resolve := t.DirtyRows()
	if !ridTrusted || ridCol < 0 {
		resolve = make(relstore.Selection, t.Len())
		for p := range resolve {
			resolve[p] = int32(p)
		}
	} else {
		inherited := c.bip.RecordSet(parents[0])
		if len(parents) > 1 {
			inherited = c.bip.UnionSet(parents)
		}
		st.kept = make([]vgraph.RecordID, 0, t.Len())
		next := 0 // of resolve
		for p := 0; p < t.Len(); p++ {
			if next < len(resolve) && int(resolve[next]) == p {
				next++
				continue
			}
			rid := t.IntAt(p, ridCol)
			if !inherited.Contains(rid) {
				return staged{}, fmt.Errorf("cvd: %s: row %d of staging table %q carries record id %d, which no parent version holds", c.name, p, t.Name, rid)
			}
			st.kept = append(st.kept, vgraph.RecordID(rid))
		}
	}
	st.rows = len(resolve)
	st.row = func(r int, buf relstore.Row) relstore.Row {
		for j, col := range cols {
			buf[j] = t.At(int(resolve[r]), col)
		}
		return buf
	}
	return st, nil
}

// buildCommit turns staged rows into a commit request following the no
// cross-version diff rule: a staged row reuses the rid of a parent record with
// identical content — of the first parent, in commit order, that holds one,
// and the lowest such rid — and every other row becomes a fresh record,
// returned as its rid followed by its data values (the form the journal logs
// and applyCommit writes to the catalog); the request lists the kept records,
// applyCommit adds the fresh ones. Rows that resolve to one record count once.
// Everything that can refuse the rows is checked before the schema evolves,
// and the fresh rids are only numbered here — applyCommit is what takes them —
// so a commit that fails allocates nothing, and the next journalled delta
// still continues the log (see replay).
func (c *CVD) buildCommit(parents []vgraph.VersionID, st staged) (CommitRequest, []relstore.Row, error) {
	merged, changed, err := c.mergedSchema(st.schema)
	if err != nil {
		return CommitRequest{}, nil, err
	}
	place, err := c.columnPlaces(st.schema, merged)
	if err != nil {
		return CommitRequest{}, nil, err
	}
	// Records are compared in the form the evolved schema stores them, so an
	// evolving commit resolves against an index of its own, installed with the
	// schema once nothing can refuse the commit any more.
	idx := c.index
	if changed || idx == nil {
		idx = c.buildIndex(merged)
		if !changed {
			c.index = idx
		}
	}
	parentSets := make([]*recset.Set, len(parents))
	for i, p := range parents {
		parentSets[i] = c.bip.RecordSet(p)
	}

	kept := st.kept
	if kept == nil {
		kept = make([]vgraph.RecordID, 0, st.rows)
	}
	var fresh []relstore.Row
	inPlace := len(place) == len(merged.Columns) // staged rows are laid out as the CVD's
	for j, i := range place {
		inPlace = inPlace && i == j
	}
	buf, scratch := make(relstore.Row, len(place)), make(relstore.Row, len(merged.Columns))
	for r := 0; r < st.rows; r++ {
		aligned := st.row(r, buf)
		if !inPlace {
			for i := range scratch {
				scratch[i] = relstore.Null()
			}
			for j, i := range place {
				scratch[i] = aligned[j]
			}
			aligned = scratch
		}
		if rid := c.matchRecord(idx, parentSets, aligned); rid != 0 {
			kept = append(kept, rid)
			continue
		}
		row := make(relstore.Row, 1, 1+len(aligned))
		row[0] = relstore.Int(int64(c.nextRID) + int64(len(fresh)))
		fresh = append(fresh, append(row, aligned...))
	}
	// Canonical record order: ascending rid, whatever order the rows were
	// staged in — the one order a replayed journal delta can reproduce (see
	// replay). Fresh rids are numbered in ascending order above every existing
	// one, so only the kept records need sorting.
	slices.Sort(kept)
	if len(idx.pk) > 0 {
		for i := 1; i < len(kept); i++ {
			if kept[i] == kept[i-1] { // two staged rows are the same record, so share its key
				return CommitRequest{}, nil, c.duplicateKey(idx, c.rec(kept[i]))
			}
		}
		if err := c.checkPrimaryKey(idx, kept, fresh, len(parents) > 1); err != nil {
			return CommitRequest{}, nil, err
		}
	}
	kept = slices.Compact(kept)

	if changed {
		if err := c.adoptSchema(merged); err != nil {
			return CommitRequest{}, nil, err
		}
		c.index = idx
	}
	req := CommitRequest{
		Version:    c.nextVersion(),
		Parents:    append([]vgraph.VersionID(nil), parents...),
		ParentRIDs: c.bip.Records,
		RIDs:       kept,
	}
	return req, fresh, nil
}

// matchRecord returns the record a staged row (aligned with idx's schema) is,
// by buildCommit's rule, or 0 when no parent holds a record of that content. A
// hash hit is confirmed cell by cell against the catalog's lanes.
func (c *CVD) matchRecord(idx *recIndex, parentSets []*recset.Set, aligned relstore.Row) vgraph.RecordID {
	staged := cells{row: aligned}
	h := idx.hash(staged, nil)
	best, bestParent := vgraph.RecordID(0), len(parentSets)-1
	for id := idx.content.first(h); id != 0; id = idx.content.after(id, h) {
		rid := vgraph.RecordID(id)
		for p := 0; p <= bestParent; p++ {
			if !parentSets[p].Contains(int64(rid)) {
				continue
			}
			if (p < bestParent || best == 0 || rid < best) && idx.same(staged, c.rec(rid), nil) {
				best, bestParent = rid, p
			}
			break
		}
	}
	return best
}

// checkPrimaryKey verifies that no two rows of the version being built share
// primary-key values (a constraint that must hold within a single version),
// looking only at what the commit changes: every fresh record against the
// other fresh ones and, through the key index, against the kept ones. Kept
// records are compared with each other only when they come from several
// parents — those of one parent are a subset of a version that was checked
// when it was committed. kept is sorted; fresh rows carry their rid first.
func (c *CVD) checkPrimaryKey(idx *recIndex, kept []vgraph.RecordID, fresh []relstore.Row, severalParents bool) error {
	var seen chains
	seen.reserve(len(fresh))
	for i, row := range fresh {
		rec := cells{row: row[1:]}
		h := idx.hash(rec, idx.pk)
		for id := seen.first(h); id != 0; id = seen.after(id, h) {
			if idx.same(rec, cells{row: fresh[id-1][1:]}, idx.pk) {
				return c.duplicateKey(idx, rec)
			}
		}
		seen.add(uint32(i+1), h)
		for id := idx.key.first(h); id != 0; id = idx.key.after(id, h) {
			rid := vgraph.RecordID(id)
			if _, held := slices.BinarySearch(kept, rid); held && idx.same(rec, c.rec(rid), idx.pk) {
				return c.duplicateKey(idx, rec)
			}
		}
	}
	if !severalParents {
		return nil
	}
	seen = chains{}
	seen.reserve(len(kept))
	for i, rid := range kept {
		h := idx.key.hash[rid]
		for id := seen.first(h); id != 0; id = seen.after(id, h) {
			if idx.same(c.rec(rid), c.rec(kept[id-1]), idx.pk) {
				return c.duplicateKey(idx, c.rec(rid))
			}
		}
		seen.add(uint32(i+1), h)
	}
	return nil
}

func (c *CVD) duplicateKey(idx *recIndex, rec cells) error {
	key := make([]string, len(idx.pk))
	var buf relstore.Value
	for k, i := range idx.pk {
		key[k] = idx.cell(rec, i, &buf).AsString()
	}
	return fmt.Errorf("cvd: %s: duplicate primary key (%s) within a version", c.name, strings.Join(key, ", "))
}

// admitCommit refuses a commit the CVD cannot take at all; the caller holds
// c.mu.
func (c *CVD) admitCommit(parents []vgraph.VersionID) error {
	if len(parents) == 0 {
		return fmt.Errorf("cvd: %s: commit requires at least one parent version", c.name)
	}
	// Drop tears the model's tables down under the mutex; a commit that
	// waited for it must not reach for them.
	if c.read().dropped {
		return c.errDropped()
	}
	if c.journal != nil && c.journalErr != nil {
		// An earlier commit was applied in memory but never reached the WAL.
		// Journaling this one would produce a log that replays against a
		// parent the WAL does not contain — refuse before touching any state,
		// so the divergence stays confined to the one lost version until a
		// checkpoint (which snapshots the diverged state and re-arms the
		// journal) or a reopen heals it.
		return fmt.Errorf("cvd: %s: commit refused: journal poisoned by an earlier append failure (in-memory state diverged from the WAL; checkpoint or reopen to recover): %w", c.name, c.journalErr)
	}
	for _, p := range parents {
		if c.graph.Node(p) == nil {
			return fmt.Errorf("cvd: %s: unknown parent version %d", c.name, p)
		}
	}
	return nil
}

// commitStaged builds, applies and journals one admitted commit, and publishes
// it once journaled; the caller holds c.mu. A version id returned with an
// error is a commit applied in memory whose journaling failed, which is
// published all the same.
func (c *CVD) commitStaged(parents []vgraph.VersionID, st staged, msg, author string) (vgraph.VersionID, error) {
	req, fresh, err := c.buildCommit(parents, st)
	if err != nil {
		return 0, err
	}
	at := c.clock()
	if err := c.applyCommit(req, fresh, msg, author, at); err != nil {
		return 0, err
	}
	defer c.publish()
	if c.journal != nil {
		versions, delta, schema := c.deltaLocked(req.Version, parents, fresh)
		if err := c.journal.LogCommit(c.name, versions, delta, schema, msg, author, at); err != nil {
			// The commit is applied in memory but the WAL lacks it: poison the
			// journal so every later commit fails fast instead of appending
			// records that replay against this missing version, then surface
			// the durability failure so the caller knows the WAL does not
			// cover it.
			c.journalErr = err
			return req.Version, fmt.Errorf("cvd: %s: version %d committed but journaling failed: %w", c.name, req.Version, err)
		}
	}
	return req.Version, nil
}

// Commit adds a new version derived from parents with the given rows (data
// attributes in rowSchema order). It returns the new version id. This is the
// programmatic path; CommitTable commits a previously checked-out staging
// table. Every row is matched by content against the parents' records: rows
// equal to one record count once, and the CVD's primary key, if it has one,
// must be unique among the rows. Commit holds the CVD's mutex for its
// duration, so concurrent commits serialize; reads go on off the state
// published before it and see the version once Commit publishes it.
func (c *CVD) Commit(parents []vgraph.VersionID, rows []relstore.Row, rowSchema relstore.Schema, msg, author string) (vgraph.VersionID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.admitCommit(parents); err != nil {
		return 0, err
	}
	st, err := c.stageRows(rows, rowSchema)
	if err != nil {
		return 0, err
	}
	return c.commitStaged(parents, st, msg, author)
}

// CommitTable commits a previously checked-out staging table as a new
// version; the version's parents are the versions the table was checked out
// from. The staging table is dropped afterwards.
//
// A row that was not written since the checkout is the record it was checked
// out as, whatever else the version holds: committing an unedited checkout
// yields exactly the parents' record set, two records of equal content
// included (without a primary key a version can hold such a pair, and
// matching them by content, as Commit does, would keep one). Rows that were
// written — Set, UpdateWhere, AlterColumnType — or added are matched by
// content like Commit's rows. The CVD's primary key is enforced on the result.
func (c *CVD) CommitTable(tableName, msg, author string) (vgraph.VersionID, error) {
	// Claim the checkout entry atomically: of two concurrent CommitTable
	// calls for the same staging table, exactly one proceeds (the loser sees
	// the entry gone). On failure the claim is restored so the caller can
	// retry or discard.
	c.ckMu.Lock()
	info, ok := c.checkouts[tableName]
	if ok {
		delete(c.checkouts, tableName)
	}
	c.ckMu.Unlock()
	if !ok {
		return 0, fmt.Errorf("cvd: %s: table %q was not produced by checkout", c.name, tableName)
	}
	restore := func() {
		c.ckMu.Lock()
		c.checkouts[tableName] = info
		c.ckMu.Unlock()
	}
	t, ok := c.db.Table(tableName)
	if !ok {
		restore()
		return 0, fmt.Errorf("cvd: %s: staging table %q has been dropped", c.name, tableName)
	}
	v, err := func() (vgraph.VersionID, error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if err := c.admitCommit(info.parents); err != nil {
			return 0, err
		}
		st, err := c.stageTable(t, t == info.table, info.parents)
		if err != nil {
			return 0, err
		}
		return c.commitStaged(info.parents, st, msg, author)
	}()
	if err != nil {
		if v != 0 {
			// The commit was applied in memory but journaling it failed
			// (commitStaged's partial success). The staging table is consumed —
			// restoring the claim would let a retry commit the same rows as
			// a duplicate version.
			c.db.DropTable(tableName)
			return v, err
		}
		restore()
		return 0, err
	}
	c.db.DropTable(tableName)
	return v, nil
}

// CommitCSV commits a CSV stream (with header) as a new version derived from
// parents, coercing values through schema (the `commit -f -s` path).
func (c *CVD) CommitCSV(parents []vgraph.VersionID, r io.Reader, schema relstore.Schema, msg, author string) (vgraph.VersionID, error) {
	t, err := relstore.ReadCSV(r, c.name+"_csv_commit", schema)
	if err != nil {
		return 0, err
	}
	return c.Commit(parents, t.Rows(), schema, msg, author)
}
