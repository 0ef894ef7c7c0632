package core

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cvd"
	"repro/internal/durable"
	"repro/internal/vfs"
	"repro/internal/vgraph"
)

// A split-by-rlist CVD keeps each version's rlist once: the versioning table
// is the bipartite graph's record sets, in memory and, as the record-set runs,
// on disk (manifest version 4). The tests here pin that across the durable
// paths, the check the open and fsck make of the runs, and the refusal of a
// manifest of version 3, which stored the rlists a second time.

// sameRlists fails unless every version of every CVD of e has an rlist that is
// the bipartite graph's record set of the version.
func sameRlists(t *testing.T, what string, e *Engine) {
	t.Helper()
	for _, name := range e.List() {
		c, err := e.CVD(name)
		if err != nil {
			t.Fatal(err)
		}
		rl, err := c.Rlist()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range c.Versions() {
			if s := rl.RecordSet(v); s == nil || s != c.Bipartite().RecordSet(v) {
				t.Fatalf("%s: version %d of %s: the rlist is not the bipartite graph's record set", what, v, name)
			}
		}
	}
}

// versionsDir builds a closed data directory holding CVD d: four versions in
// the checkpoint at epoch 1 and two more in the WAL after it.
func versionsDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	e, err := OpenDurable("sets", dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.Init("d", sweepSchema(), sweepRows(1, 3), cvd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	commit := func(v int) {
		if _, err := c.Commit([]vgraph.VersionID{vgraph.VersionID(v - 1)}, sweepRows(int64(v), v+2), sweepSchema(), "more", "t"); err != nil {
			t.Fatal(err)
		}
	}
	for v := 2; v <= 4; v++ {
		commit(v)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for v := 5; v <= 6; v++ {
		commit(v)
	}
	sameRlists(t, "live", e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRlistIsRecordSetAfterReopen: after an open from a manifest plus a WAL
// tail, and after a point-in-time restore, each version's rlist and its record
// set in the bipartite graph are one set.
func TestRlistIsRecordSetAfterReopen(t *testing.T) {
	dir := versionsDir(t)
	e, err := OpenDurable("sets", dir)
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := e.CVD("d"); c.NumVersions() != 6 {
		t.Fatalf("reopened with %d versions, want 6", c.NumVersions())
	}
	sameRlists(t, "reopened from a manifest and a WAL tail", e)
	if err := e.Close(); err != nil { // a restore takes the directory's lock
		t.Fatal(err)
	}
	at, err := OpenAtEpoch("sets", dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := at.CVD("d"); c.NumVersions() != 4 {
		t.Fatalf("restored epoch 1 with %d versions, want 4", c.NumVersions())
	}
	sameRlists(t, "restored at epoch 1", at)
}

// TestBadVersionsRefused: a checkpoint whose chunks all hash right but whose
// record-set runs are not the history the CVD head describes — a head that
// counts one record more for a version than its set holds, or a set holding a
// record id never handed out — is refused by the open and by point-in-time
// restore, and fsck reports it, with and without repair, in the same sentence
// (bad-versions). No file changes.
func TestBadVersionsRefused(t *testing.T) {
	for name, tc := range map[string]struct {
		damage func(st *cvd.PersistentState)
		want   string
	}{
		"head-count": {func(st *cvd.PersistentState) { st.Metas[2].NumRecords++ }, "version 3 lists 5 records in the versioning table, 5 in the version graph and 6 in its metadata"},
		"unissued-rid": {func(st *cvd.PersistentState) {
			last := &st.RecordSets[len(st.RecordSets)-1]
			s := last.Set.Clone() // shared with the live CVD: never edit it in place
			hi, _ := s.Max()
			s.Remove(hi)
			s.Add(int64(st.NextRID))
			last.Set = s
		}, "version 4 lists record ids"},
	} {
		t.Run(name, func(t *testing.T) {
			e := Open("bad")
			c, err := e.Init("d", sweepSchema(), sweepRows(1, 3), cvd.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for v := 2; v <= 4; v++ {
				if _, err := c.Commit([]vgraph.VersionID{vgraph.VersionID(v - 1)}, sweepRows(int64(v), v+2), sweepSchema(), "more", "t"); err != nil {
					t.Fatal(err)
				}
			}
			snap, _, release, err := e.buildSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(snap.CVDs[0])
			dir := t.TempDir()
			err = durable.Export(dir, vfs.OS(), snap)
			release()
			if err != nil {
				t.Fatal(err)
			}
			before := dirHashes(t, dir)

			_, openErr := OpenDurable("bad", dir)
			_, epochErr := OpenAtEpoch("bad", dir, 1)
			for what, err := range map[string]error{"OpenDurable": openErr, "OpenAtEpoch": epochErr} {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%s: %v, want the refusal %q", what, err, tc.want)
				}
			}
			for _, repair := range []bool{false, true} {
				rep, err := durable.Scrub(dir, durable.ScrubOptions{Repair: repair})
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Issues) != 1 || rep.Issues[0].Kind != durable.IssueBadVersions || rep.Issues[0].Repaired || rep.Issues[0].Detail != openErr.Error() {
					t.Fatalf("scrub (repair %v): %+v, want one %s issue saying %q", repair, rep.Issues, durable.IssueBadVersions, openErr)
				}
			}
			sameFiles(t, "a refused versioning table", dir, before)
		})
	}
}

// TestManifestVersion3Refused: a directory whose manifest is of version 3 —
// whose checkpoints listed a versioning table beside the record-set runs — is
// another build's, not a damaged one: the open, point-in-time restore and fsck
// with and without repair refuse it with one sentence and leave every file as
// it was.
func TestManifestVersion3Refused(t *testing.T) {
	dir := versionsDir(t)
	path := filepath.Join(dir, durable.ManifestFileName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[8:12], 3) // magic, then the version; the CRC covers the payload only
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirHashes(t, dir)
	const want = "is a format version 3 manifest, this build reads version 4 only"
	_, _, openErr := durable.OpenFS(dir, vfs.OS())
	_, engineErr := OpenDurable("sets", dir)
	_, epochErr := OpenAtEpoch("sets", dir, 1)
	_, scrubErr := durable.Scrub(dir, durable.ScrubOptions{})
	_, repairErr := durable.Scrub(dir, durable.ScrubOptions{Repair: true})
	for what, err := range map[string]error{"OpenFS": openErr, "OpenDurable": engineErr, "OpenAtEpoch": epochErr, "Scrub": scrubErr, "Scrub -repair": repairErr} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s of a version 3 manifest: %v", what, err)
		}
	}
	sameFiles(t, "a refused version 3 manifest", dir, before)
}
