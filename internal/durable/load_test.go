package durable

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cvd"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// snapshotBytes encodes every table and CVD state of snap with the
// checkpoint's own encoders: equal bytes, equal snapshots.
func snapshotBytes(snap *Snapshot) []byte {
	e := enc{}
	e.str(snap.DBName)
	e.u64(snap.Epoch)
	for _, t := range snap.Tables {
		meta := metaForTable(t)
		e.tableMeta(&meta)
		for ci := range t.Schema.Columns {
			encodeColBand(&e, t.ColumnLanes(ci), 0, t.Len(), true)
		}
	}
	for _, st := range snap.CVDs {
		encodeCVDHead(&e, st)
		encodeRecsetRun(&e, st, 0, len(st.RecordSets))
	}
	return e.b
}

// loadsAgree loads m through get on one worker and, three times, on four,
// and fails unless every load refuses with the one-worker load's error or
// returns its snapshot. It returns the error.
func loadsAgree(t *testing.T, what string, m *manifest, get chunkGetter) error {
	t.Helper()
	want, _, wantErr := loadSnapshotFromManifest(m, get, 1)
	for round := 0; round < 3; round++ {
		got, _, err := loadSnapshotFromManifest(m, get, 4)
		switch {
		case wantErr != nil || err != nil:
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: one worker refuses with %v, four with %v", what, wantErr, err)
			}
		case string(snapshotBytes(got)) != string(snapshotBytes(want)):
			t.Fatalf("%s: four workers load another snapshot than one", what)
		}
	}
	return wantErr
}

// TestParallelLoadRefusesAsSequential swaps the chunks of a two-CVD checkpoint
// for the hostile chunk corpus (hostileChunks) — one slot at a time, and two
// at once, so that the load meets more than one refusal — and holds the load
// on four workers to the load on one: the same error, or the same snapshot.
// With two slots swapped, the load refuses as a sequential load that reads the
// slots in order (every table's columns, band by band, then every CVD's head
// and runs) would: with the first slot's refusal, when that slot alone is
// refused. The hostile-delta image of FuzzScrub loads alike too.
func TestParallelLoadRefusesAsSequential(t *testing.T) {
	s, _, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	db := relstore.NewDatabase("load")
	rng := rand.New(rand.NewSource(3))
	snap := &Snapshot{DBName: db.Name()}
	for _, name := range []string{"a", "b"} {
		rows := gateRows(rng, 0, 40)
		c, err := cvd.Init(db, name, gateSchema(), rows, cvd.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Commit([]vgraph.VersionID{1}, append(rows[:30:30], gateRows(rng, 40, 5)...), gateSchema(), "edit", "t"); err != nil {
			t.Fatal(err)
		}
		one := snapshotOf(t, db, c)
		snap.Tables = append(snap.Tables, one.Tables...)
		snap.CVDs = append(snap.CVDs, one.CVDs...)
	}
	stats, err := s.Checkpoint(snap)
	if err != nil {
		t.Fatal(err)
	}
	m := s.manifests[stats.Epoch]

	chunks := make(map[ChunkHash][]byte)
	m.chunkRefs(func(h ChunkHash, _ uint8) {
		payload, err := s.pack.get(h, nil)
		if err != nil {
			t.Fatal(err)
		}
		chunks[h] = payload
	})
	var hostile []ChunkHash
	for _, payload := range hostileChunks(t) {
		h := hashChunk(payload)
		chunks[h] = payload
		hostile = append(hostile, h)
	}
	get := func(h ChunkHash, _ []byte) ([]byte, error) {
		if payload, ok := chunks[h]; ok {
			return payload, nil
		}
		return nil, fmt.Errorf("durable: chunk %s missing", h)
	}
	loadsAgree(t, "the checkpoint", m, get)

	// slots returns a copy of m and a pointer to every chunk reference in it,
	// in the order a sequential load reads them.
	slots := func() (*manifest, []*ChunkHash) {
		c := &manifest{dbName: m.dbName, epoch: m.epoch}
		var refs []*ChunkHash
		for _, mt := range m.tables {
			cols := make([][]ChunkHash, len(mt.cols))
			for ci, bands := range mt.cols {
				cols[ci] = append([]ChunkHash(nil), bands...)
			}
			c.tables = append(c.tables, manifestTable{meta: mt.meta, cols: cols})
		}
		for _, mc := range m.cvds {
			c.cvds = append(c.cvds, manifestCVD{layout: mc.layout, head: mc.head, runs: append([]ChunkHash(nil), mc.runs...)})
		}
		for ti := range c.tables {
			for ci := range c.tables[ti].cols {
				for b := range c.tables[ti].cols[ci] {
					refs = append(refs, &c.tables[ti].cols[ci][b])
				}
			}
		}
		for i := range c.cvds {
			refs = append(refs, &c.cvds[i].head)
			for b := range c.cvds[i].runs {
				refs = append(refs, &c.cvds[i].runs[b])
			}
		}
		return c, refs
	}
	_, refs := slots()
	alone := make([][]error, len(refs)) // [slot][hostile chunk]: the refusal of that swap alone
	for r := range refs {
		for k, h := range hostile {
			c, refs := slots()
			*refs[r] = h
			alone[r] = append(alone[r], loadsAgree(t, fmt.Sprintf("slot %d holding hostile chunk %d", r, k), c, get))
		}
	}
	for r := range refs {
		for k, h := range hostile {
			r2, k2 := (r+1+7*k)%len(refs), (k+1)%len(hostile)
			if r2 == r {
				continue
			}
			c, refs := slots()
			*refs[r], *refs[r2] = h, hostile[k2]
			what := fmt.Sprintf("slots %d and %d holding hostile chunks %d and %d", r, r2, k, k2)
			err := loadsAgree(t, what, c, get)
			first := alone[r][k]
			if r2 < r {
				first = alone[r2][k2]
			}
			if first != nil && fmt.Sprint(err) != fmt.Sprint(first) {
				t.Fatalf("%s: refused with %v, want the first slot's refusal %v", what, err, first)
			}
		}
	}

	pack, man, wal := fuzzScrubImage(t, true)
	dir := t.TempDir()
	for name, data := range map[string][]byte{PackFile: pack, ManifestFileName(1): man, WALSegmentFileName(1): wal} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, oneErr := OpenAtEpoch(dir, 1, 1)
	_, fourErr := OpenAtEpoch(dir, 1, 4)
	if oneErr == nil || fmt.Sprint(oneErr) != fmt.Sprint(fourErr) {
		t.Fatalf("the hostile-delta image loads on one worker with %v, on four with %v", oneErr, fourErr)
	}
}
