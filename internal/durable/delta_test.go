package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchmark"
	"repro/internal/cvd"
	"repro/internal/deltastore"
	"repro/internal/partition"
	"repro/internal/recset"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// loadPreset commits every version of a benchmark preset into a fresh
// split-by-rlist CVD. Under -race it skips: the presets take seconds to load
// there, and the tests that use them count bytes, which the detector does not
// change.
func loadPreset(t *testing.T, name string) (*relstore.Database, *cvd.CVD) {
	t.Helper()
	if raceEnabled {
		t.Skip("loading a benchmark preset under the race detector; the storage gates run without it")
	}
	cfg, err := benchmark.Preset(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := benchmark.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db := relstore.NewDatabase(name)
	c, err := benchmark.LoadCVD(db, "d", w, cvd.SplitByRlist)
	if err != nil {
		t.Fatal(err)
	}
	return db, c
}

// entrySizes encodes every run of st's versioning table, decodes the runs
// back (each set must be the one encoded) and returns each version's stored
// entry: its tag and its size in bytes, tag included.
func entrySizes(t testing.TB, st *cvd.PersistentState) (tags []uint8, sizes []int) {
	t.Helper()
	var sets []cvd.VersionRecordSet
	for lo := 0; lo < len(st.RecordSets); lo += defaultRecsetRun {
		hi := min(lo+defaultRecsetRun, len(st.RecordSets))
		var e enc
		encodeRecsetRun(&e, st, lo, hi)
		var err error
		if sets, err = decodeRecsetRun(sets, e.b, st); err != nil {
			t.Fatal(err)
		}
		d := &dec{b: e.b}
		d.u8()
		for n := d.length(2); n > 0; n-- {
			d.uvarint()
			start := d.off
			tag := d.u8()
			if tag == recsetFull {
				d.recset()
			} else {
				d.ridGaps()
				d.ridGaps()
			}
			tags, sizes = append(tags, tag), append(sizes, d.off-start)
		}
		if d.err != nil || d.off != len(e.b) {
			t.Fatalf("walking run at %d: %v", lo, d.err)
		}
	}
	for i, vs := range st.RecordSets {
		if sets[i].Version != vs.Version || !recset.Equal(sets[i].Set, vs.Set) {
			t.Fatalf("version %d decodes to another set", vs.Version)
		}
	}
	return tags, sizes
}

// entryCosts returns the two entries version v could be stored as: its full
// set, and its delta against the union of its parents (-1 for a root).
func entryCosts(st *cvd.PersistentState, v vgraph.VersionID) (full, delta int) {
	s := st.RecordSets[v-1].Set
	full = 1 + len(s.AppendBinary(nil))
	parents := st.Metas[v-1].Parents
	if len(parents) == 0 {
		return full, -1
	}
	u := recset.New()
	for _, p := range parents {
		u.UnionWith(st.RecordSets[p-1].Set)
	}
	var e enc
	e.ridGaps(recset.AndNot(u, s).Slice())
	e.ridGaps(recset.AndNot(s, u).Slice())
	return full, 1 + len(e.b)
}

// TestDeltaRunsAreMinimumStorage holds the writer's per-version choice to
// Chapter 7's minimum-storage solver (deltastore.MinimumStorage). On the
// merge-free SCI_10K, whose deltas run from parent to child only, the
// checkpoint's entries take exactly the solver's total storage, where
// materializing a version costs its full set's encoding and the edge from its
// parent costs its delta's. On CUR_10K, which merges, every version takes the
// smaller of its full set and its delta against its parents' union; a root
// is always full. Both histories decode back to the sets encoded.
func TestDeltaRunsAreMinimumStorage(t *testing.T) {
	t.Run("SCI_10K", func(t *testing.T) {
		db, c := loadPreset(t, "SCI_10K")
		st := snapshotOf(t, db, c).CVDs[0]
		_, sizes := entrySizes(t, st)
		g := deltastore.NewGraph(len(st.RecordSets))
		chosen := 0
		for i, vs := range st.RecordSets {
			full, delta := entryCosts(st, vs.Version)
			if err := g.SetMaterialization(int(vs.Version), float64(full), 0); err != nil {
				t.Fatal(err)
			}
			if parents := st.Metas[i].Parents; len(parents) == 1 {
				if err := g.SetDelta(int(parents[0]), int(vs.Version), float64(delta), 0); err != nil {
					t.Fatal(err)
				}
			} else if len(parents) > 1 {
				t.Fatalf("version %d of SCI_10K merges %v", vs.Version, parents)
			}
			chosen += sizes[i]
		}
		sol, err := deltastore.MinimumStorage(g)
		if err != nil {
			t.Fatal(err)
		}
		costs, err := g.Evaluate(sol)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d versions: the runs' entries take %d B; minimum storage is %.0f B with %d versions materialized",
			len(sizes), chosen, costs.TotalStorage, len(sol.Materialized()))
		if float64(chosen) != costs.TotalStorage {
			t.Fatalf("the runs' entries take %d B, minimum storage is %.0f B", chosen, costs.TotalStorage)
		}
	})
	t.Run("CUR_10K", func(t *testing.T) {
		db, c := loadPreset(t, "CUR_10K")
		st := snapshotOf(t, db, c).CVDs[0]
		tags, sizes := entrySizes(t, st)
		merges := 0
		for i, vs := range st.RecordSets {
			full, delta := entryCosts(st, vs.Version)
			if len(st.Metas[i].Parents) > 1 {
				merges++
			}
			want, tag := full, recsetFull
			if delta >= 0 && delta < full {
				want, tag = delta, recsetDelta
			}
			if sizes[i] != want || tags[i] != tag {
				t.Fatalf("version %d is stored as a %d-byte entry of tag %d; full takes %d B, delta %d B", vs.Version, sizes[i], tags[i], full, delta)
			}
		}
		if merges == 0 {
			t.Fatal("CUR_10K has no merge")
		}
	})
}

// TestStorageGates holds one checkpoint of each preset to two byte counts,
// the same on every machine: its record-set runs take at most 0.15 B per
// (version, record) edge, and its whole pack at most 0.55 of what manifest
// version 4, which stored every set in full, wrote for the same history. The
// kinds are summed from the pack's own frames and must agree with the
// checkpoint's stats and with fsck's live bytes. Partitioned as Optimize
// partitions it (LyreSplit at γ = 2|R|), the same store checkpoints in at most
// 1.05 times the bytes: a partitioning is a plan, not a copy of records.
func TestStorageGates(t *testing.T) {
	// Pack bytes one checkpoint of the preset wrote under manifest version 4,
	// measured by this test's measuring half at that build: 734 214 and
	// 919 834 B of them record-set runs, 2.00 and 1.80 B per edge. (That
	// build's metadata table, whose timestamps moved its column bands by a few
	// bytes from run to run, is gone since manifest version 7.)
	for preset, v4Pack := range map[string]int64{"SCI_10K": 1_363_619, "CUR_10K": 1_641_031} {
		t.Run(preset, func(t *testing.T) {
			db, c := loadPreset(t, preset)
			snap := snapshotOf(t, db, c)
			var edges int64
			for _, vs := range snap.CVDs[0].RecordSets {
				edges += vs.Set.Len()
			}
			dir := t.TempDir()
			s, _, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := s.Checkpoint(snap)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			var walked KindBytes
			for _, f := range readPackFrames(t, filepath.Join(dir, PackFile)) {
				walked.add(f.payload[0], int64(len(f.payload)))
			}
			info, err := os.Stat(filepath.Join(dir, PackFile))
			if err != nil {
				t.Fatal(err)
			}
			pack := info.Size()
			perEdge := float64(walked.RecsetRuns) / float64(edges)
			t.Logf("%s: %d edges; pack %d B (%.2f of manifest version 4's %d B): %s; %.3f B of record-set runs per edge",
				preset, edges, pack, float64(pack)/float64(v4Pack), v4Pack, walked, perEdge)
			rep, err := Scrub(dir, ScrubOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Written != walked || stats.Referenced != walked || rep.LiveBytes != walked {
				t.Errorf("checkpoint stats: %s referenced, %s written; fsck: %s live; the pack holds %s", stats.Referenced, stats.Written, rep.LiveBytes, walked)
			}
			if perEdge > 0.15 {
				t.Errorf("record-set runs take %.3f B per edge, want <= 0.15", perEdge)
			}
			if limit := v4Pack * 55 / 100; pack > limit {
				t.Errorf("pack of %d B, want <= %d (0.55 of manifest version 4's %d B)", pack, limit, v4Pack)
			}

			m, err := c.Rlist()
			if err != nil {
				t.Fatal(err)
			}
			tree, err := vgraph.ToTree(c.Graph())
			if err != nil {
				t.Fatal(err)
			}
			res, err := partition.SolveStorageConstraint(tree, 2*tree.DistinctRecords(), partition.LyreSplitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.ApplyPartitioning(res.Partitioning); err != nil {
				t.Fatal(err)
			}
			parted := t.TempDir()
			ps, _, err := Open(parted)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ps.Checkpoint(snapshotOf(t, db, c)); err != nil {
				t.Fatal(err)
			}
			if err := ps.Close(); err != nil {
				t.Fatal(err)
			}
			info, err = os.Stat(filepath.Join(parted, PackFile))
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s in %d partitions of %d records: pack %d B, %.3f of the unpartitioned %d B", preset, len(m.PartitionSizes()), m.DataRecordCount(), info.Size(), float64(info.Size())/float64(pack), pack)
			if limit := pack * 105 / 100; info.Size() > limit {
				t.Errorf("the partitioned store's pack is %d B, want <= %d (1.05 of the unpartitioned %d B)", info.Size(), limit, pack)
			}
		})
	}
}

// TestHostileDeltaEntriesRefused: a delta entry that does not continue its
// parents' union — a tombstone they do not hold, an addition they already
// hold, a list that does not ascend strictly from rid 1 (which the writer
// never produces, and which would make a rebuild quadratic), a parent no
// older than the version — and an
// entry of an unknown tag are refused as bad-versions (cvd.ErrBadVersions),
// naming the CVD and the version, never with a panic. The head is the fuzz
// CVD's, whose versions 2 and 3 are children of version 1 = {1, 2, 10}.
func TestHostileDeltaEntriesRefused(t *testing.T) {
	root := fullEntry(1, recset.FromSlice([]int64{1, 2, 10}))
	for name, tc := range map[string]struct {
		head    func(*cvd.PersistentState)
		entries [][]byte
		want    string
	}{
		"tombstone":         {nil, [][]byte{root, deltaEntry(2, []int64{3}, nil)}, "version 2 drops record 3, which its parents do not hold"},
		"added-in-parent":   {nil, [][]byte{root, deltaEntry(2, nil, []int64{10})}, "version 2 adds record 10, which its parents already hold"},
		"added-twice":       {nil, [][]byte{root, deltaEntry(2, nil, []int64{20, 20})}, "version 2's delta lists record 20 out of order"},
		"added-descending":  {nil, [][]byte{root, deltaEntry(2, nil, []int64{3 << 16, 2 << 16, 1 << 16})}, "version 2's delta lists record 131072 out of order"},
		"dropped-unsorted":  {nil, [][]byte{root, deltaEntry(2, []int64{10, 2}, nil)}, "version 2's delta lists record 2 out of order"},
		"rid-zero":          {nil, [][]byte{root, deltaEntry(2, nil, []int64{0, 20})}, "version 2's delta lists record 0 out of order"},
		"dropped-and-added": {nil, [][]byte{root, deltaEntry(2, []int64{10}, []int64{10})}, "version 2 adds record 10"},
		"parent-ahead":      {func(h *cvd.PersistentState) { h.Metas[1].Parents = []vgraph.VersionID{2} }, [][]byte{root, deltaEntry(2, nil, []int64{20})}, "version 2 is stored as a delta against parent 2, which is not an older version"},
		"no-metadata":       {nil, [][]byte{deltaEntry(2, nil, []int64{20})}, "version 2 is stored as a delta, but the CVD head holds no metadata naming its parents"},
		"tag":               {nil, [][]byte{root, {2, 7}}, "version 2 is stored under record-set entry tag 7"},
	} {
		t.Run(name, func(t *testing.T) {
			head := fuzzCVDState()
			if tc.head != nil {
				tc.head(head)
			}
			_, err := decodeRecsetRun(nil, runPayload(tc.entries...), head)
			if !errors.Is(err, cvd.ErrBadVersions) || !strings.Contains(err.Error(), `CVD fuzz: `+tc.want) {
				t.Fatalf("decoding the run: %v, want a bad-versions refusal saying %q", err, tc.want)
			}
		})
	}
}

// TestHostileDeltaRefusedByOpenAndFsck: a checkpoint whose frames, hashes and
// CRCs are all right but whose run holds a delta dropping a record its parent
// does not hold fails the open as bad-versions, and fsck, with and without
// repair, reports it in the open's sentence and changes no file.
func TestHostileDeltaRefusedByOpenAndFsck(t *testing.T) {
	pack, man, wal := fuzzScrubImage(t, true)
	dir := t.TempDir()
	files := map[string][]byte{PackFile: pack, ManifestFileName(1): man, WALSegmentFileName(1): wal}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, openErr := Open(dir)
	const want = "CVD d: version 2 drops record 1000, which its parents do not hold"
	if !errors.Is(openErr, cvd.ErrBadVersions) || !strings.Contains(openErr.Error(), want) {
		t.Fatalf("open: %v, want a bad-versions refusal saying %q", openErr, want)
	}
	for _, repair := range []bool{false, true} {
		rep, err := Scrub(dir, ScrubOptions{Repair: repair})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Issues) != 1 || rep.Issues[0].Kind != IssueBadVersions || rep.Issues[0].Repaired || rep.Issues[0].Detail != openErr.Error() {
			t.Fatalf("scrub (repair %v): %+v, want one %s issue saying %q", repair, rep.Issues, IssueBadVersions, openErr)
		}
	}
	for name, data := range files {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s changed (%v)", name, err)
		}
	}
}
