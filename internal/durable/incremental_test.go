package durable

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cvd"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// gateSchema is the SCI presets' record shape: an integer key and nineteen
// integer attributes.
func gateSchema() relstore.Schema {
	cols := []relstore.Column{{Name: "key", Type: relstore.TypeInt}}
	for i := 1; i < 20; i++ {
		cols = append(cols, relstore.Column{Name: fmt.Sprintf("a%02d", i), Type: relstore.TypeInt})
	}
	return relstore.MustSchema(cols, "key")
}

// gateRows returns n records with keys from first, attributes drawn below 10^6
// as the SCI generator draws them.
func gateRows(rng *rand.Rand, first, n int) []relstore.Row {
	rows := make([]relstore.Row, n)
	for k := range rows {
		rows[k] = relstore.Row{relstore.Int(int64(first + k))}
		for i := 1; i < 20; i++ {
			rows[k] = append(rows[k], relstore.Int(rng.Int63n(1_000_000)))
		}
	}
	return rows
}

// commitSmallVersions commits n versions of 25 fresh records each, all children
// of v1: the small-delta commits an incremental checkpoint is for.
func commitSmallVersions(t *testing.T, c *cvd.CVD, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := c.Commit([]vgraph.VersionID{1}, gateRows(rng, int(c.NumRecords()), 25), gateSchema(), "small", "t"); err != nil {
			t.Fatal(err)
		}
	}
}

// seededCVD builds a split-by-rlist CVD large enough that the data table (its
// record catalog) and the record sets have full interior bands, which is what an
// incremental checkpoint can reuse: 64 000 records in the first version and 20
// small versions after it. On a smaller one the tail bands, which every
// checkpoint re-encodes, dominate the counts.
func seededCVD(t *testing.T, rng *rand.Rand) (*relstore.Database, *cvd.CVD) {
	t.Helper()
	db := relstore.NewDatabase("seeded")
	c, err := cvd.Init(db, "d", gateSchema(), gateRows(rng, 0, 64_000), cvd.Options{Model: cvd.SplitByRlist})
	if err != nil {
		t.Fatal(err)
	}
	commitSmallVersions(t, c, rng, 20)
	return db, c
}

// snapshotOf captures the CVD as a checkpoint takes it.
func snapshotOf(t testing.TB, db *relstore.Database, c *cvd.CVD) *Snapshot {
	t.Helper()
	st, err := c.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	return &Snapshot{DBName: db.Name(), Tables: []*relstore.Table{db.MustTable(st.DataTable())}, CVDs: []*cvd.PersistentState{st}}
}

// TestCheckpointGates holds the two deterministic gates of the checkpoint
// format. Both are byte and chunk counts, the same on every machine; they skip
// under -race, which only slows the 64 000-record load, and CI runs them in
// its storage-gate step.
func TestCheckpointGates(t *testing.T) {
	if raceEnabled {
		t.Skip("a byte-count gate; the storage gates run without the race detector")
	}
	rng := rand.New(rand.NewSource(42))
	db, c := seededCVD(t, rng)

	// Lane codecs: over every column band of the CVD's tables, the sampled
	// encodings take at most half the bytes of the identity encodings.
	var sampled, identity int
	var e enc
	for _, tab := range snapshotOf(t, db, c).Tables {
		meta := metaForTable(tab)
		for ci := range meta.schema.Columns {
			lanes := tab.ColumnLanes(ci)
			for b := 0; b < numBands(meta.nrows, meta.bandRows); b++ {
				lo, hi := bandSpan(b, meta.bandRows, meta.nrows)
				e.b = e.b[:0]
				encodeColBand(&e, lanes, lo, hi, false)
				sampled += len(e.b)
				e.b = e.b[:0]
				encodeColBand(&e, lanes, lo, hi, true)
				identity += len(e.b)
			}
		}
	}
	t.Logf("table bands: %d B under the sampled codecs, %d B under identity encodings (%.2fx)", sampled, identity, float64(identity)/float64(sampled))
	if sampled*2 > identity {
		t.Errorf("sampled lane codecs encode the table bands in %d B, want <= half of the identity encodings' %d B", sampled, identity)
	}

	// Content addressing: after a burst of small commits, a checkpoint writes
	// at most 7 % of the bytes of the first one and rewrites at most 15 % of
	// its chunks. It rewrites the tail bands of the data table, the tail run of
	// record sets and the head: 5.9 % of the bytes (181 261 of 3 093 558) and
	// 32 of 348 chunks. The record-set runs are a sliver of either checkpoint:
	// each small version drops all 64 000 records of version 1, so its run
	// stores it in full, 25 rids, rather than as a delta of 64 000 tombstones,
	// and version 1 is a root, stored in full. With a versioning table of
	// rlist arrays beside the runs (manifest version 3) the burst rewrote that
	// table whole, version 1's 64 000-element rlist included, as the band
	// height follows the average rlist and the burst moved it: 7.8 % of the
	// bytes (246 470 of 3 158 345).
	s, _, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	full, err := s.Checkpoint(snapshotOf(t, db, c))
	if err != nil {
		t.Fatal(err)
	}
	// The pack may still dedup the odd pair of identical small bands.
	if full.ChunksWritten < full.Chunks*9/10 {
		t.Errorf("first checkpoint wrote only %d of %d chunks", full.ChunksWritten, full.Chunks)
	}
	commitSmallVersions(t, c, rng, 20)
	incr, err := s.Checkpoint(snapshotOf(t, db, c))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("first checkpoint: %d chunks, %d B written; after the burst: %d of %d chunks rewritten, %d B written",
		full.Chunks, full.BytesWritten, incr.ChunksWritten, incr.Chunks, incr.BytesWritten)
	if limit := full.BytesWritten * 7 / 100; incr.BytesWritten > limit {
		t.Errorf("incremental checkpoint wrote %d B, want <= %d (7%% of the first checkpoint's %d)", incr.BytesWritten, limit, full.BytesWritten)
	}
	if limit := incr.Chunks * 15 / 100; incr.ChunksWritten > limit {
		t.Errorf("incremental checkpoint rewrote %d of %d chunks, want <= %d (15%%)", incr.ChunksWritten, incr.Chunks, limit)
	}
}
