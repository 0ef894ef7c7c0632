package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cvd"
	"repro/internal/relstore"
	"repro/internal/vfs"
	"repro/internal/vgraph"
)

// The fsck "teeth" tests: each one injects a precise, realistic corruption
// into a real data directory and proves Scrub detects it — and repairs it
// exactly when repair is safe.

// buildScrubDir creates a closed data directory with one completed
// checkpoint and a non-empty active WAL segment.
func buildScrubDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Unix(0, 42)
	if err := s.LogInit("cvd", []vgraph.VersionID{1}, walDelta(1, 3), walSchema(), "init", "alice", at); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	snap := &Snapshot{DBName: "db", Tables: []*relstore.Table{randomTable(t, rng, "a", 64)}}
	if _, err := s.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	// The snapshot above holds no CVD, so what continues it is an init.
	if err := s.LogInit("late", []vgraph.VersionID{1}, walDelta(1, 2), walSchema(), "post-ckpt", "bob", at.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

type packFrame struct {
	off     int64 // frame start (hash field)
	n       uint32
	h       ChunkHash
	payload []byte
}

// readPackFrames parses every frame of a pack file.
func readPackFrames(t *testing.T, path string) []packFrame {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var frames []packFrame
	off := int64(packHeaderSize)
	for off < int64(len(data)) {
		var f packFrame
		f.off = off
		copy(f.h[:], data[off:off+16])
		f.n = binary.LittleEndian.Uint32(data[off+16 : off+20])
		f.payload = data[off+packFrameOverhead : off+packFrameOverhead+int64(f.n)]
		frames = append(frames, f)
		off += packFrameOverhead + int64(f.n)
	}
	return frames
}

func scrubKinds(rep *ScrubReport) map[IssueKind]int {
	kinds := make(map[IssueKind]int)
	for _, is := range rep.Issues {
		kinds[is.Kind]++
	}
	return kinds
}

func TestScrubHealthyDir(t *testing.T) {
	dir := buildScrubDir(t)
	rep, err := Scrub(dir, ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("healthy directory reported issues: %+v", rep.Issues)
	}
	if rep.ChunksChecked == 0 || rep.ManifestsChecked == 0 || rep.SegmentsChecked == 0 {
		t.Fatalf("scrub walked nothing: %+v", rep)
	}
}

// TestScrubFlippedLiveChunk: silent bit rot inside a live chunk. The flip is
// paired with a recomputed frame CRC, so only the content-hash check can
// catch it — the exact gap a CRC-only scrubber would miss. Detection is
// mandatory; repair is impossible (the payload is gone) so the issue must
// stay unrepaired and name the affected epoch.
func TestScrubFlippedLiveChunk(t *testing.T) {
	dir := buildScrubDir(t)
	packPath := filepath.Join(dir, PackFile)
	frames := readPackFrames(t, packPath)
	if len(frames) < 2 {
		t.Fatalf("fixture pack has %d frames, want >= 2", len(frames))
	}
	f, err := os.OpenFile(packPath, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	target := frames[0]
	flipped := append([]byte(nil), target.payload...)
	flipped[len(flipped)/2] ^= 0x01
	if _, err := f.WriteAt(flipped, target.off+packFrameOverhead); err != nil {
		t.Fatal(err)
	}
	var crcField [4]byte
	binary.LittleEndian.PutUint32(crcField[:], crc32.ChecksumIEEE(flipped))
	if _, err := f.WriteAt(crcField[:], target.off+20); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, repair := range []bool{false, true} {
		rep, err := Scrub(dir, ScrubOptions{Repair: repair})
		if err != nil {
			t.Fatal(err)
		}
		kinds := scrubKinds(rep)
		if kinds[IssueCorruptChunk] == 0 {
			t.Fatalf("repair=%v: flipped live chunk not detected: %+v", repair, rep.Issues)
		}
		found := false
		for _, is := range rep.Issues {
			if is.Kind == IssueCorruptChunk && len(is.Epochs) > 0 {
				found = true
				if is.Repaired {
					t.Fatalf("a corrupt LIVE chunk claims to be repaired: %+v", is)
				}
			}
		}
		if !found {
			t.Fatalf("repair=%v: no corrupt-chunk issue names the affected epoch: %+v", repair, rep.Issues)
		}
		if rep.Unrepaired() == 0 {
			t.Fatalf("repair=%v: irrecoverable rot reported as fully repaired", repair)
		}
	}
}

// buildFlipDir creates a closed data directory holding one CVD checkpointed
// twice under SetRetention(1), with a commit after each checkpoint: the first
// checkpoint's frames that the second did not reuse are dead, and sit in
// front of live ones.
func buildFlipDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRetention(1)
	db := relstore.NewDatabase("flip")
	rng := rand.New(rand.NewSource(11))
	c, err := cvd.Init(db, "d", gateSchema(), gateRows(rng, 0, 30), cvd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.SetJournal(s)
	for v := vgraph.VersionID(1); v <= 2; v++ {
		if _, err := s.Checkpoint(snapshotOf(t, db, c)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Commit([]vgraph.VersionID{v}, gateRows(rng, 20, 15), gateSchema(), "more", "f"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestScrubPlainBitFlip: the classic single bit flip (no CRC fix-up), in each
// frame of the pack in turn. The frame CRC catches it; a mid-file frame is a
// corrupt chunk, the last frame a torn tail. The open and point-in-time
// restore read the pack by the same walk and leave it byte-identical: a
// corrupt frame stays in place and the frames after it still serve, so the
// open succeeds exactly when the newest checkpoint does not need the flipped
// chunk, and Scrub reports the same before and after the open. A dead flipped
// frame is compacted away by Scrub{Repair}, and the directory opens.
func TestScrubPlainBitFlip(t *testing.T) {
	fixture := buildFlipDir(t)
	epochs, err := ListEpochs(fixture)
	if err != nil || len(epochs) != 1 {
		t.Fatalf("fixture retains epochs %v (%v), want one", epochs, err)
	}
	newest := epochs[0]
	m, err := readManifestFile(vfs.OS(), filepath.Join(fixture, ManifestFileName(newest)))
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[ChunkHash]bool)
	m.chunkRefs(func(h ChunkHash, _ uint8) { live[h] = true })
	frames := readPackFrames(t, filepath.Join(fixture, PackFile))
	last := len(frames) - 1
	dead := func(fr packFrame) bool { return !live[fr.h] }
	if !live[frames[last].h] || !slices.ContainsFunc(frames[:last], dead) {
		t.Fatalf("fixture pack has no dead frame in front of a live one (%d frames)", len(frames))
	}

	for i, fr := range frames {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(fixture)); err != nil {
			t.Fatal(err)
		}
		packPath := filepath.Join(dir, PackFile)
		f, err := os.OpenFile(packPath, os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{fr.payload[0] ^ 0x80}, fr.off+packFrameOverhead); err != nil {
			t.Fatal(err)
		}
		f.Close()
		flipped, err := os.ReadFile(packPath)
		if err != nil {
			t.Fatal(err)
		}
		unchanged := func(after string) {
			t.Helper()
			if got, err := os.ReadFile(packPath); err != nil || !bytes.Equal(got, flipped) {
				t.Fatalf("frame %d: %s changed the pack from %d to %d bytes (%v)", i, after, len(flipped), len(got), err)
			}
		}

		before, err := Scrub(dir, ScrubOptions{})
		if err != nil {
			t.Fatal(err)
		}
		kinds := scrubKinds(before)
		if i == last && kinds[IssueTornPackTail] == 0 {
			t.Fatalf("frame %d: a bit flip in the last frame is not a torn tail: %+v", i, before.Issues)
		} else if i < last && (kinds[IssueCorruptChunk] == 0 || kinds[IssueTornPackTail] != 0) {
			t.Fatalf("frame %d: a mid-file bit flip is not a corrupt chunk alone: %+v", i, before.Issues)
		}
		openErr := recoverDir(dir)
		unchanged("the open")
		if (openErr == nil) == live[fr.h] {
			t.Fatalf("frame %d (live %v): the open says %v", i, live[fr.h], openErr)
		}
		OpenAtEpoch(dir, newest, 0) // succeeds or fails as the open does; only its writes matter here
		unchanged("OpenAtEpoch")
		after, err := Scrub(dir, ScrubOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(before.Issues, after.Issues) {
			t.Fatalf("frame %d: Scrub before the open %+v, after %+v", i, before.Issues, after.Issues)
		}
		if live[fr.h] {
			continue
		}
		if rep, err := Scrub(dir, ScrubOptions{Repair: true}); err != nil || rep.Unrepaired() != 0 {
			t.Fatalf("frame %d: repairing a dead flipped frame: %v, %+v", i, err, rep.Issues)
		}
		if err := recoverDir(dir); err != nil {
			t.Fatalf("frame %d: the repaired directory does not open: %v", i, err)
		}
	}
}

// TestScrubDanglingRef: a chunk the manifest references vanishes from the
// pack (here: the pack is rewritten without its first frame — the shape left
// by a bad compaction or an external truncate+rewrite).
func TestScrubDanglingRef(t *testing.T) {
	dir := buildScrubDir(t)
	packPath := filepath.Join(dir, PackFile)
	data, err := os.ReadFile(packPath)
	if err != nil {
		t.Fatal(err)
	}
	frames := readPackFrames(t, packPath)
	if len(frames) < 2 {
		t.Fatalf("fixture pack has %d frames, want >= 2", len(frames))
	}
	// Splice out frame 0.
	cut := frames[1].off
	out := append(append([]byte(nil), data[:packHeaderSize]...), data[cut:]...)
	if err := os.WriteFile(packPath, out, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub(dir, ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	kinds := scrubKinds(rep)
	if kinds[IssueDanglingRef] == 0 {
		t.Fatalf("dangling manifest reference not detected: %+v", rep.Issues)
	}
}

// TestScrubTornWALTail: a crashed append leaves half a record at the end of
// the active segment. Detection is mandatory; repair (truncating the
// unacknowledged bytes) is safe, after which the directory must reopen with
// every committed record intact.
func TestScrubTornWALTail(t *testing.T) {
	dir := buildScrubDir(t)
	listing, err := listDataDir(vfs.OS(), dir)
	if err != nil {
		t.Fatal(err)
	}
	active := listing.segments[len(listing.segments)-1]
	f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Record header claiming 1000 payload bytes, followed by only 6.
	var tail [8 + 6]byte
	binary.LittleEndian.PutUint32(tail[:4], 1000)
	binary.LittleEndian.PutUint32(tail[4:8], 0xdeadbeef)
	if _, err := f.Write(tail[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rep, err := Scrub(dir, ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if scrubKinds(rep)[IssueTornWALTail] == 0 {
		t.Fatalf("torn active WAL tail not detected: %+v", rep.Issues)
	}

	rep, err = Scrub(dir, ScrubOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if scrubKinds(rep)[IssueTornWALTail] == 0 {
		t.Fatalf("torn tail vanished from repair report: %+v", rep.Issues)
	}
	if rep.Unrepaired() != 0 {
		t.Fatalf("torn active tail should repair cleanly: %+v", rep.Issues)
	}
	s, _, err := Open(dir)
	if err != nil {
		t.Fatalf("reopening repaired directory: %v", err)
	}
	var commits int
	if _, err := s.ReplayWAL(func(r *Record) error {
		commits++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if commits != 1 {
		t.Fatalf("replayed %d records after repair, want 1 (the post-checkpoint commit)", commits)
	}
}

// TestScrubWALChainHole: the open and Scrub find a hole in the WAL chain by
// one check — the checkpoint's own segment missing, or two segments that are
// not consecutive. The open fails with the sentence Scrub reports, and
// Scrub{Repair} quarantines the segments the hole strands, after which the
// directory opens.
func TestScrubWALChainHole(t *testing.T) {
	segment := func(t *testing.T, dir string, epoch uint64) {
		t.Helper()
		f, err := os.Create(filepath.Join(dir, WALSegmentFileName(epoch)))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := writeWALHeader(f, epoch); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name     string
		damage   func(t *testing.T, dir string)
		sentence string
		epoch    uint64
	}{
		{"gap", func(t *testing.T, dir string) { segment(t, dir, 3) },
			"WAL segments 1 and 3 are not contiguous", 2},
		{"base missing", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, WALSegmentFileName(1))); err != nil {
				t.Fatal(err)
			}
			segment(t, dir, 2)
		}, "WAL segment for epoch 1 is missing (oldest present is 2)", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := buildScrubDir(t)
			tc.damage(t, dir)
			rep, err := Scrub(dir, ScrubOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Issues) != 1 || rep.Issues[0].Kind != IssueMissingWALSegment ||
				rep.Issues[0].Detail != tc.sentence || !slices.Equal(rep.Issues[0].Epochs, []uint64{tc.epoch}) {
				t.Fatalf("scrub reports %+v, want one %s saying %q for epoch %d", rep.Issues, IssueMissingWALSegment, tc.sentence, tc.epoch)
			}
			if err := recoverDir(dir); err == nil || !strings.HasSuffix(err.Error(), ": "+tc.sentence) {
				t.Fatalf("the open says %v, want %q", err, tc.sentence)
			}
			if rep, err := Scrub(dir, ScrubOptions{Repair: true}); err != nil || rep.Unrepaired() != 0 {
				t.Fatalf("repair: %v, %+v", err, rep.Issues)
			}
			if err := recoverDir(dir); err != nil {
				t.Fatalf("the repaired directory does not open: %v", err)
			}
		})
	}
}

// TestScrubTornPackTail: garbage appended to the pack (a crashed chunk
// append) is classified as a torn tail and truncated away on repair.
func TestScrubTornPackTail(t *testing.T) {
	dir := buildScrubDir(t)
	packPath := filepath.Join(dir, PackFile)
	f, err := os.OpenFile(packPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("half a frame")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rep, err := Scrub(dir, ScrubOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if scrubKinds(rep)[IssueTornPackTail] == 0 {
		t.Fatalf("torn pack tail not detected: %+v", rep.Issues)
	}
	if rep.Unrepaired() != 0 {
		t.Fatalf("torn pack tail should repair cleanly: %+v", rep.Issues)
	}
	if _, err := Scrub(dir, ScrubOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestScrubManifestFallback: the newest of two retained manifests is
// corrupted. Scrub must fall back to the older intact one on repair —
// quarantining the damaged manifest and the WAL segments stranded by the
// fallback — and report exactly which epochs were lost. The directory must
// open again afterwards.
func TestScrubManifestFallback(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRetention(4)
	at := time.Unix(0, 42)
	if err := s.LogInit("cvd", []vgraph.VersionID{1}, walDelta(1, 3), walSchema(), "init", "alice", at); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	if _, err := s.Checkpoint(&Snapshot{DBName: "db", Tables: []*relstore.Table{randomTable(t, rng, "a", 64)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(&Snapshot{DBName: "db", Tables: []*relstore.Table{randomTable(t, rng, "b", 64)}}); err != nil {
		t.Fatal(err)
	}
	epochs := s.RetainedEpochs()
	if len(epochs) < 2 {
		t.Fatalf("fixture retained %d epochs, want >= 2", len(epochs))
	}
	newest := epochs[len(epochs)-1]
	older := epochs[len(epochs)-2]
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the newest manifest's payload.
	manPath := filepath.Join(dir, ManifestFileName(newest))
	data, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(manPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Scrub(dir, ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if scrubKinds(rep)[IssueCorruptManifest] == 0 {
		t.Fatalf("corrupt newest manifest not detected: %+v", rep.Issues)
	}

	rep, err = Scrub(dir, ScrubOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	var lostReported bool
	for _, is := range rep.Issues {
		if is.Repaired {
			for _, e := range is.Epochs {
				if e == newest {
					lostReported = true
				}
			}
		}
	}
	if !lostReported {
		t.Fatalf("fallback repair does not report epoch %d as lost: %+v", newest, rep.Issues)
	}
	if scrubKinds(rep)[IssueUnopenable] != 0 {
		t.Fatalf("directory still unopenable after fallback repair: %+v", rep.Issues)
	}
	s2, res, err := Open(dir)
	if err != nil {
		t.Fatalf("reopening after fallback repair: %v", err)
	}
	defer s2.Close()
	if s2.Epoch() != older {
		t.Fatalf("reopened at epoch %d, want fallback epoch %d", s2.Epoch(), older)
	}
	if res.Snapshot == nil {
		t.Fatal("fallback open recovered no snapshot")
	}
}

// TestScrubRefusesLiveDir: a directory held open by a live store must refuse
// to scrub rather than racing its writes.
func TestScrubRefusesLiveDir(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := Scrub(dir, ScrubOptions{}); err == nil {
		t.Fatal("scrub of a locked live directory succeeded")
	}
}

// TestScrubSparseCatalog: a checkpoint whose chunks are all intact but whose
// record catalog — the data table — is not one row per record id handed out
// cannot be restored (cvd.ErrBadCatalog). Scrub says so instead of calling the
// directory clean.
func TestScrubSparseCatalog(t *testing.T) {
	t.Run(cvd.SplitByRlist.String(), func(t *testing.T) {
		db := relstore.NewDatabase("sparse")
		rng := rand.New(rand.NewSource(3))
		c, err := cvd.Init(db, "d", gateSchema(), gateRows(rng, 0, 40), cvd.Options{})
		if err != nil {
			t.Fatal(err)
		}
		export := func(damage func(*cvd.PersistentState)) string {
			snap := snapshotOf(t, db, c)
			damage(snap.CVDs[0])
			dir := t.TempDir()
			if err := Export(dir, vfs.OS(), snap); err != nil {
				t.Fatal(err)
			}
			return dir
		}
		rep, err := Scrub(export(func(*cvd.PersistentState) {}), ScrubOptions{})
		if err != nil || !rep.Healthy() {
			t.Fatalf("scrub of an intact export: %v, %+v", err, rep)
		}
		dir := export(func(st *cvd.PersistentState) { st.NextRID += 2 })
		rep, err = Scrub(dir, ScrubOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if kinds := scrubKinds(rep); kinds[IssueBadCatalog] != 1 || len(rep.Issues) != 1 {
			t.Fatalf("issues %+v, want one %s", rep.Issues, IssueBadCatalog)
		}
		if d := rep.Issues[0].Detail; !strings.Contains(d, "holds 40 records where record ids 1 to 42 were handed out") {
			t.Fatalf("issue detail %q", d)
		}
		// The open refuses the same state with the same sentence.
		s, res, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := NewRecovery(relstore.NewDatabase("r"), 0).Restore(res.Snapshot); err == nil || err.Error() != rep.Issues[0].Detail {
			t.Fatalf("restore: %v; scrub said %q", err, rep.Issues[0].Detail)
		}
	})
}

// TestScrubRestoresEveryRetainedEpoch: fsck restores every retained
// checkpoint, not only the newest. An older epoch whose record catalog is not
// the one its head describes is reported as bad-catalog, for that epoch, in
// the sentence its point-in-time restore fails with — while the newest epoch,
// which the open restores, is intact.
func TestScrubRestoresEveryRetainedEpoch(t *testing.T) {
	db := relstore.NewDatabase("epochs")
	c, err := cvd.Init(db, "d", gateSchema(), gateRows(rand.New(rand.NewSource(3)), 0, 40), cvd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	bumped := snapshotOf(t, db, c)
	bumped.CVDs[0].NextRID += 2
	for _, snap := range []*Snapshot{bumped, snapshotOf(t, db, c)} {
		if _, err := s.Checkpoint(snap); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub(dir, ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || rep.Issues[0].Kind != IssueBadCatalog || !slices.Equal(rep.Issues[0].Epochs, []uint64{1}) {
		t.Fatalf("issues %+v, want one %s of epoch 1", rep.Issues, IssueBadCatalog)
	}
	for epoch, want := range map[uint64]string{1: rep.Issues[0].Detail, 2: ""} {
		snap, err := OpenAtEpoch(dir, epoch, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := ""
		if err := NewRecovery(relstore.NewDatabase(""), 0).Restore(snap); err != nil {
			got = err.Error()
		}
		if got != want {
			t.Fatalf("restoring epoch %d: %q, want %q", epoch, got, want)
		}
	}
}

// TestScrubShortPackHeader: a pack shorter than its header is what a crash
// while creating it leaves, and the open writes the header afresh. fsck
// reports it as crash debris and its repair writes the same header; a header
// of the right length but another magic stays corrupt-chunk, because the open
// refuses it too.
func TestScrubShortPackHeader(t *testing.T) {
	build := func(pack []byte) string {
		dir := t.TempDir()
		s, _, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.LogInit("cvd", []vgraph.VersionID{1}, walDelta(1, 3), walSchema(), "init", "alice", time.Unix(0, 42)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, PackFile), pack, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	for _, n := range []int{0, 5, packHeaderSize - 1} {
		dir := build(packHeader()[:n])
		rep, err := Scrub(dir, ScrubOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Issues) != 1 || rep.Issues[0].Kind != IssueTornPackTail {
			t.Fatalf("a %d-byte pack: %+v, want one %s", n, rep.Issues, IssueTornPackTail)
		}
		if rep, err = Scrub(dir, ScrubOptions{Repair: true}); err != nil || rep.Unrepaired() != 0 {
			t.Fatalf("repairing a %d-byte pack: %v, %+v", n, err, rep.Issues)
		}
		if got, err := os.ReadFile(filepath.Join(dir, PackFile)); err != nil || !bytes.Equal(got, packHeader()) {
			t.Fatalf("repaired pack %q (%v), want the header", got, err)
		}
		if err := recoverDir(dir); err != nil {
			t.Fatalf("opening a repaired %d-byte pack: %v", n, err)
		}
	}
	dir := build([]byte("ORPHPAKX\x02\x00\x00\x00"))
	rep, err := Scrub(dir, ScrubOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || rep.Issues[0].Kind != IssueCorruptChunk || rep.Issues[0].Repaired {
		t.Fatalf("a pack of another magic: %+v, want one unrepaired %s", rep.Issues, IssueCorruptChunk)
	}
	if err := recoverDir(dir); err == nil {
		t.Fatal("a pack of another magic opened")
	}
}

// TestScrubUndecodableHead: a checkpoint whose CVD head chunk is intact — it
// hashes right — but does not decode cannot be opened. Scrub reports it as
// unopenable, in the open's sentence, instead of passing over it.
func TestScrubUndecodableHead(t *testing.T) {
	db := relstore.NewDatabase("head")
	c, err := cvd.Init(db, "d", gateSchema(), gateRows(rand.New(rand.NewSource(4)), 0, 20), cvd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Export(dir, vfs.OS(), snapshotOf(t, db, c)); err != nil {
		t.Fatal(err)
	}
	junk := []byte("not a CVD head")
	pack, _, err := openPack(vfs.OS(), filepath.Join(dir, PackFile), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pack.put(hashChunk(junk), junk); err != nil {
		t.Fatal(err)
	}
	if err := pack.sync(); err != nil {
		t.Fatal(err)
	}
	pack.close()
	m, err := readManifestFile(vfs.OS(), filepath.Join(dir, ManifestFileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	m.cvds[0].head = hashChunk(junk)
	if _, err := writeManifestFile(vfs.OS(), dir, m); err != nil {
		t.Fatal(err)
	}

	rep, err := Scrub(dir, ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	openErr := recoverDir(dir)
	if openErr == nil {
		t.Fatal("a checkpoint with an undecodable CVD head opened")
	}
	if len(rep.Issues) != 1 || rep.Issues[0].Kind != IssueUnopenable || rep.Issues[0].Detail != openErr.Error() {
		t.Fatalf("scrub reports %+v, want one %s saying %q", rep.Issues, IssueUnopenable, openErr)
	}
}
