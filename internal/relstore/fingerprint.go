package relstore

// Band fingerprinting for the incremental checkpointer: a cheap 128-bit
// content fingerprint over a row range of one column's physical lanes, used
// by package durable to skip re-encoding and re-hashing chunks whose content
// did not change since the previous checkpoint. The fingerprint is
// maphash-based and process-local — seeds are generated per Store open and
// never persisted — so it gates an in-memory cache only; the durable content
// address remains the SHA-256-derived chunk hash.

import (
	"encoding/binary"
	"hash/maphash"
	"math"
)

// BandFingerprint returns a 128-bit fingerprint (two independently seeded
// maphash sums) of rows [lo, hi) of the column's lanes. Lane boundaries and
// value lengths are folded in so concatenation ambiguities cannot collide.
func (l ColumnLanes) BandFingerprint(s1, s2 maphash.Seed, lo, hi int) [2]uint64 {
	var h1, h2 maphash.Hash
	h1.SetSeed(s1)
	h2.SetSeed(s2)
	var scratch [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h1.Write(scratch[:])
		h2.Write(scratch[:])
	}
	writeBytes := func(b []byte) {
		h1.Write(b)
		h2.Write(b)
	}

	// Lane presence mask first: a column whose int lane disappears must not
	// collide with one that never had it.
	var present uint64
	if l.Ints != nil {
		present |= 1
	}
	if l.Floats != nil {
		present |= 2
	}
	if l.Strs != nil {
		present |= 4
	}
	if l.Arrs != nil {
		present |= 8
	}
	writeU64(present)

	writeBytes(l.Tags[lo:hi])
	if l.Ints != nil {
		for _, v := range l.Ints[lo:hi] {
			writeU64(uint64(v))
		}
	}
	if l.Floats != nil {
		for _, v := range l.Floats[lo:hi] {
			writeU64(math.Float64bits(v))
		}
	}
	if l.Strs != nil {
		for _, s := range l.Strs[lo:hi] {
			writeU64(uint64(len(s)))
			h1.WriteString(s)
			h2.WriteString(s)
		}
	}
	if l.Arrs != nil {
		for _, a := range l.Arrs[lo:hi] {
			writeU64(uint64(len(a)))
			for _, v := range a {
				writeU64(uint64(v))
			}
		}
	}
	return [2]uint64{h1.Sum64(), h2.Sum64()}
}

// View returns a read-only table over the rows the receiver holds now, sharing
// their backing vectors. The receiver may go on appending — new rows land past
// the view's and copy nothing — while any other write to it (Set, Shrink,
// AlterColumnType, ...) copies the column first, leaving the view frozen. A
// view taken under the lock that serializes the receiver's writers can
// therefore be read after the lock is released, concurrently with appends. It
// carries the schema and the stats collector but no index, and must not be
// mutated.
func (t *Table) View() *Table {
	nt := &Table{
		Name:    t.Name,
		Schema:  t.Schema.Clone(),
		Cluster: t.Cluster,
		nrows:   t.nrows,
		stats:   t.stats,
	}
	nt.cols = make([]*column, len(t.cols))
	for i, c := range t.cols {
		nt.cols[i] = c.view()
	}
	return nt
}

// SnapshotClone returns a view of the table for the snapshot writer: it also
// carries the index column names, which the writer records, and counts what is
// read from it apart from the live table's cost statistics. Callers must hold
// the lock that serializes the writers of the CVD owning the table while
// cloning.
func (t *Table) SnapshotClone() *Table {
	nt := t.View()
	nt.stats = &CostStats{}
	nt.indexCols = append([]int(nil), t.indexCols...)
	return nt
}
