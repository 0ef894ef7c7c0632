package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cvd"
	"repro/internal/recset"
	"repro/internal/relstore"
	"repro/internal/vfs"
	"repro/internal/vgraph"
)

// The chunk and manifest decoders sit directly behind the CRC-framed pack and
// manifest files, but a flipped disk block can pass a stale CRC or the frame
// check can be the thing that's corrupt — so the decoders themselves must
// treat their input as hostile: arbitrary bytes return an error, never panic,
// and never trigger an implausible allocation.

// fuzzColBandPayload encodes one real column band for the seed corpus.
func fuzzColBandPayload(rawLanes bool) []byte {
	const n = 20
	lanes := relstore.ColumnLanes{
		Tags:   make([]uint8, n),
		Ints:   make([]int64, n),
		Floats: make([]float64, n),
		Strs:   make([]string, n),
		Arrs:   make([][]int64, n),
	}
	for i := 0; i < n; i++ {
		lanes.Tags[i] = uint8(relstore.TypeInt)
		lanes.Ints[i] = int64(i * 1000)
		lanes.Floats[i] = float64(i) / 3
		lanes.Strs[i] = []string{"x", "y", "z"}[i%3]
		lanes.Arrs[i] = []int64{int64(i), int64(i + 1)}
	}
	var e enc
	encodeColBand(&e, lanes, 0, n, rawLanes)
	return e.b
}

// fuzzCVDState builds a small but fully populated persistent CVD state.
func fuzzCVDState() *cvd.PersistentState {
	schema := relstore.MustSchema([]relstore.Column{
		{Name: "key", Type: relstore.TypeInt},
		{Name: "val", Type: relstore.TypeString},
	}, "key")
	g := vgraph.New()
	for v := vgraph.VersionID(1); v <= 3; v++ {
		node, err := g.AddVersion(v, int64(v)*10)
		if err != nil {
			panic(err)
		}
		node.NumAttrs = 2
	}
	if err := g.AddEdgeAttrs(1, 2, 5, 2); err != nil {
		panic(err)
	}
	if err := g.AddEdgeAttrs(1, 3, 7, 2); err != nil {
		panic(err)
	}
	st := &cvd.PersistentState{
		Name:    "fuzz",
		Schema:  schema,
		NextVID: 4,
		NextRID: 31,
		Graph:   g,
		Metas: []*cvd.VersionMeta{
			{ID: 1, CommitAt: time.Unix(0, 12345), Message: "init", Author: "f", Attributes: []cvd.AttrID{1, 2}, NumRecords: 10},
			{ID: 2, Parents: []vgraph.VersionID{1}, Message: "edit", NumRecords: 20},
			{ID: 3, Parents: []vgraph.VersionID{1}, NumRecords: 30},
		},
		Attrs: []cvd.Attribute{
			{ID: 1, Name: "key", Type: relstore.TypeInt},
			{ID: 2, Name: "val", Type: relstore.TypeString},
		},
	}
	for v := vgraph.VersionID(1); v <= 3; v++ {
		st.RecordSets = append(st.RecordSets, cvd.VersionRecordSet{
			Version: v,
			Set:     recset.FromSlice([]int64{1, 2, int64(v) * 10}),
		})
	}
	return st
}

// withModel returns a copy of an init record or CVD head payload of the CVD
// name with kind in its model field, which follows the kind or op byte and the
// name (shorter than 128 bytes).
func withModel(payload []byte, name string, kind cvd.ModelKind) []byte {
	out := append([]byte(nil), payload...)
	out[2+len(name)] = byte(kind)
	return out
}

// partitionedHead encodes the fuzz CVD's head under a partitioning of two
// partitions that places version 3 in partition k and gives partition 1 the
// strays 1, 2 and rid; k = 1 and rid = 30 make it a real one.
func partitionedHead(k int, rid int64) []byte {
	st := fuzzCVDState()
	st.PartitionOf = map[vgraph.VersionID]int{1: 0, 2: 0, 3: k}
	st.Strays = []*recset.Set{recset.New(), recset.FromSlice([]int64{1, 2, rid})}
	var e enc
	encodeCVDHead(&e, st)
	return e.b
}

// hostileChunks is the chunk corpus: a real CVD head, unpartitioned and
// partitioned, and record-set run, real column bands, and payloads every
// decoder must refuse — record-set run entries that do not continue their
// parents (a tombstone the parent does not hold, an addition the parent
// holds, additions that descend one per container, a delta out of version
// order, for which the head names no parents, an unknown tag), heads whose
// partitioning places a version in a partition past the count or gives a
// partition a record id never handed out, truncated and retired kinds, and
// the head of a model that does not persist, as a build that checkpointed the
// in-memory models wrote it.
func hostileChunks(tb testing.TB) [][]byte {
	var e enc
	st := fuzzCVDState()
	encodeCVDHead(&e, st)
	head := append([]byte(nil), e.b...)
	e.b = e.b[:0]
	encodeRecsetRun(&e, st, 0, len(st.RecordSets))
	if e.b[5+len(st.RecordSets[0].Set.AppendBinary(nil))] != recsetDelta { // kind, count, v1, its tag and set, v2, its tag
		tb.Fatal("version 2 of the fuzz CVD is not stored as its delta")
	}
	root := fullEntry(1, st.RecordSets[0].Set)
	return [][]byte{
		head,
		append([]byte(nil), e.b...),
		runPayload(root, deltaEntry(2, []int64{3}, nil)),
		runPayload(root, deltaEntry(2, nil, []int64{10})),
		runPayload(root, deltaEntry(2, nil, []int64{3 << 16, 2 << 16, 1 << 16})),
		runPayload(deltaEntry(2, nil, []int64{4})),
		runPayload(root, []byte{2, 7}),
		fuzzColBandPayload(false),
		fuzzColBandPayload(true),
		partitionedHead(1, 30),
		partitionedHead(2, 30),
		partitionedHead(1, 31),
		{},
		{chunkColBand},
		{chunkCVDHead, 0xff, 0xff},
		{chunkCatalogBand, 1, 7, 1, uint8(relstore.TypeNull)}, // the retired kind, as version 2 wrote it
		withModel(head, st.Name, cvd.SplitByVlist),
	}
}

// FuzzChunkDecode runs arbitrary payloads through all three chunk decoders.
// The payload kind byte routes real chunks to the right decoder, but every
// decoder sees every input here — a pack lookup can hand back the wrong kind.
func FuzzChunkDecode(f *testing.F) {
	st := fuzzCVDState()
	corpus := hostileChunks(f)
	// The head of a model that does not persist is refused by name.
	if _, err := decodeCVDHead(corpus[len(corpus)-1]); !errors.Is(err, cvd.ErrInMemoryModel) || !strings.Contains(err.Error(), `"fuzz" uses split-by-vlist`) {
		f.Fatalf("a split-by-vlist CVD head decodes with %v", err)
	}
	// A partitioning the head cannot hold is refused by name.
	if st, err := decodeCVDHead(partitionedHead(1, 30)); err != nil || len(st.Strays) != 2 || st.PartitionOf[3] != 1 {
		f.Fatalf("a partitioned CVD head decodes with %v", err)
	}
	for head, want := range map[string]string{
		string(partitionedHead(2, 30)): "version 3 is placed in partition 2, where versions 1 to 3 are in 2 partitions",
		string(partitionedHead(1, 31)): "partition 1 holds record ids 1 to 31 where ids 1 to 30 were handed out",
	} {
		if _, err := decodeCVDHead([]byte(head)); err == nil || !strings.Contains(err.Error(), "cvd: fuzz: "+want) {
			f.Fatalf("a CVD head whose partitioning is not its own decodes with %v, want %q", err, want)
		}
	}
	for _, payload := range corpus {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if lanes, present, n, err := decodeColBand(data, relstore.ColumnLanes{}, 0); err == nil {
			if len(lanes.Tags) != n {
				t.Fatalf("column band: %d tags for %d rows", len(lanes.Tags), n)
			}
			if present&laneInts != 0 && len(lanes.Ints) != n {
				t.Fatalf("column band: %d ints for %d rows", len(lanes.Ints), n)
			}
			if present&laneStrs != 0 && len(lanes.Strs) != n {
				t.Fatalf("column band: %d strings for %d rows", len(lanes.Strs), n)
			}
		}
		if st, err := decodeCVDHead(data); err == nil && st.Graph == nil {
			t.Fatal("CVD head decoded without a graph")
		}
		if sets, err := decodeRecsetRun(nil, data, st); err == nil {
			for _, vs := range sets {
				if vs.Set == nil {
					t.Fatalf("record-set run decoded version %d without a set", vs.Version)
				}
			}
		}
	})
}

// runPayload assembles a record-set run chunk from raw entries, as a hostile
// writer would.
func runPayload(entries ...[]byte) []byte {
	e := enc{b: []byte{chunkRecsetRun}}
	e.uvarint(uint64(len(entries)))
	for _, en := range entries {
		e.raw(en)
	}
	return e.b
}

// fullEntry is version v's run entry holding s in full.
func fullEntry(v vgraph.VersionID, s *recset.Set) []byte {
	var e enc
	e.uvarint(uint64(v))
	e.u8(recsetFull)
	e.b = s.AppendBinary(e.b)
	return e.b
}

// deltaEntry is version v's run entry dropping and adding the given rids.
func deltaEntry(v vgraph.VersionID, dropped, added []int64) []byte {
	var e enc
	e.uvarint(uint64(v))
	e.u8(recsetDelta)
	e.ridGaps(dropped)
	e.ridGaps(added)
	return e.b
}

// FuzzManifestDecode pins two properties of the manifest payload codec: no
// input panics or over-allocates (band counts are derived from decoded
// geometry, so a hostile header could otherwise demand terabytes), and any
// accepted input re-encodes to a stable canonical form — encode(decode(x)) is
// a fixed point even when x itself used non-canonical varints.
func FuzzManifestDecode(f *testing.F) {
	st := fuzzCVDState()
	m := &manifest{dbName: "db", epoch: 9}
	schema := relstore.MustSchema([]relstore.Column{
		{Name: "rid", Type: relstore.TypeInt},
		{Name: "txt", Type: relstore.TypeString},
	}, "rid")
	mt := manifestTable{meta: tableMeta{
		name: "t", schema: schema, nrows: 10, bandRows: 4, index: []string{"rid"},
	}}
	for ci := 0; ci < len(schema.Columns); ci++ {
		bands := make([]ChunkHash, numBands(10, 4))
		for b := range bands {
			bands[b] = hashChunk([]byte{byte(ci), byte(b)})
		}
		mt.cols = append(mt.cols, bands)
	}
	m.tables = append(m.tables, mt)
	layout := layoutForCVD(st)
	mc := manifestCVD{
		layout: layout,
		head:   hashChunk([]byte("head")),
		runs:   make([]ChunkHash, numBands(layout.sets, layout.runLen)),
	}
	m.cvds = append(m.cvds, mc)
	var e enc
	encodeManifestPayload(&e, m)
	f.Add(append([]byte(nil), e.b...))
	f.Add(e.b[:len(e.b)/2])
	f.Add([]byte{})

	// Version 3's shape: the CVD's versioning table listed among the tables, an
	// rlist array per version. The payload decodes — tables are tables — but
	// the file it came in is refused by its version before the payload is read.
	v3 := &manifest{dbName: "db", epoch: 9, cvds: m.cvds}
	versions := manifestTable{meta: tableMeta{
		name: "fuzz_versions", nrows: 3, bandRows: 4, index: []string{"vid"},
		schema: relstore.MustSchema([]relstore.Column{{Name: "vid", Type: relstore.TypeInt}, {Name: "rlist", Type: relstore.TypeIntArray}}, "vid"),
	}}
	for ci := 0; ci < 2; ci++ {
		versions.cols = append(versions.cols, []ChunkHash{hashChunk([]byte{'v', byte(ci)})})
	}
	v3.tables = append([]manifestTable{mt}, versions)

	// Version 6's shape: the CVD's metadata table listed beside its data
	// table, eight columns of every version's metadata. Refused the same way.
	v6 := &manifest{dbName: "db", epoch: 9, cvds: m.cvds}
	metadata := manifestTable{meta: tableMeta{
		name: "fuzz_metadata", nrows: 3, bandRows: 4, index: []string{"vid"},
		schema: relstore.MustSchema([]relstore.Column{
			{Name: "vid", Type: relstore.TypeInt},
			{Name: "parents", Type: relstore.TypeIntArray},
			{Name: "checkout_ts", Type: relstore.TypeInt},
			{Name: "commit_ts", Type: relstore.TypeInt},
			{Name: "msg", Type: relstore.TypeString},
			{Name: "author", Type: relstore.TypeString},
			{Name: "attributes", Type: relstore.TypeIntArray},
			{Name: "num_records", Type: relstore.TypeInt},
		}, "vid"),
	}}
	for ci := 0; ci < 8; ci++ {
		metadata.cols = append(metadata.cols, []ChunkHash{hashChunk([]byte{'m', byte(ci)})})
	}
	v6.tables = append([]manifestTable{mt}, metadata)

	for _, old := range []struct {
		version uint32
		m       *manifest
	}{{3, v3}, {6, v6}} {
		e.b = e.b[:0]
		encodeManifestPayload(&e, old.m)
		f.Add(append([]byte(nil), e.b...))
		file := binary.LittleEndian.AppendUint32([]byte(manifestMagic), old.version)
		file = binary.LittleEndian.AppendUint32(file, uint32(len(e.b)))
		file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(e.b))
		path := filepath.Join(f.TempDir(), ManifestFileName(9))
		if err := os.WriteFile(path, append(file, e.b...), 0o644); err != nil {
			f.Fatal(err)
		}
		if _, err := readManifestFile(vfs.OS(), path); !errors.Is(err, errManifestVersion) || !strings.Contains(err.Error(), fmt.Sprintf("format version %d manifest", old.version)) {
			f.Fatalf("a version %d manifest reads with %v", old.version, err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifestPayload(data)
		if err != nil {
			return
		}
		var e1 enc
		encodeManifestPayload(&e1, m)
		m2, err := decodeManifestPayload(e1.b)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		var e2 enc
		encodeManifestPayload(&e2, m2)
		if !bytes.Equal(e1.b, e2.b) {
			t.Fatal("manifest encoding is not a fixed point after one round trip")
		}
	})
}

// fuzzWALRecords are real records of every op for the WAL seed corpora: an
// init, a commit that adds mixed-type records (with a NULL and a stray type)
// and drops two, an empty-delta commit, and a drop.
func fuzzWALRecords() []*Record {
	schema := relstore.MustSchema([]relstore.Column{
		{Name: "rid", Type: relstore.TypeInt},
		{Name: "key", Type: relstore.TypeInt},
		{Name: "val", Type: relstore.TypeString},
		{Name: "score", Type: relstore.TypeFloat},
	}, "key")
	row := func(rid int64, val relstore.Value) relstore.Row {
		return relstore.Row{relstore.Int(rid), relstore.Int(rid * 10), val, relstore.Float(float64(rid) / 4)}
	}
	at := time.Unix(0, 1234567890)
	return []*Record{
		{Op: OpInit, CVD: "fuzz", Versions: []vgraph.VersionID{1}, Schema: schema,
			Delta: []relstore.Row{row(1, relstore.Str("a")), row(2, relstore.Str("b")), row(3, relstore.Null())}, Message: "init", Author: "f", At: at},
		{Op: OpCommit, CVD: "fuzz", Versions: []vgraph.VersionID{2, 1}, Schema: schema,
			Delta: []relstore.Row{row(4, relstore.Int(7)), row(5, relstore.Str("e")), {relstore.Int(1)}, {relstore.Int(3)}}, Message: "more", Author: "f", At: at},
		{Op: OpCommit, CVD: "fuzz", Versions: []vgraph.VersionID{3, 2, 1}, Schema: schema, Message: "same", Author: "f", At: at},
		{Op: OpDrop, CVD: "fuzz"},
	}
}

// FuzzWALRecordDecode: the WAL record decoder sits behind the frame CRC, but a
// record that passes it can still be anything. Arbitrary bytes must return an
// error, never panic; every count the decoder allocates for is bounded by the
// payload's length (dec.length); and an accepted record re-encodes to a form
// that is a fixed point of decode∘encode.
func FuzzWALRecordDecode(f *testing.F) {
	var refused []byte
	for _, rec := range fuzzWALRecords() {
		var e enc
		if err := encodeRecord(&e, rec); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), e.b...))
		f.Add(e.b[:len(e.b)/2])
		if rec.Op == OpInit {
			refused = withModel(e.b, rec.CVD, cvd.DeltaBased)
		}
	}
	f.Add([]byte{})
	// An init record of a model that does not persist, as a build that
	// journalled the in-memory models wrote it, is refused by name.
	if _, err := decodeRecord(refused); !errors.Is(err, cvd.ErrInMemoryModel) || !strings.Contains(err.Error(), `"fuzz" uses delta-based`) {
		f.Fatalf("a delta-based init record decodes with %v", err)
	}
	f.Add(refused)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data)
		if err != nil {
			return
		}
		if len(rec.Delta) > len(data) || len(rec.Versions) > len(data) || len(rec.Schema.Columns) > len(data) {
			t.Fatalf("%d delta rows, %d versions, %d columns out of %d bytes", len(rec.Delta), len(rec.Versions), len(rec.Schema.Columns), len(data))
		}
		var e1 enc
		if err := encodeRecord(&e1, rec); err != nil {
			t.Fatalf("an accepted record does not re-encode: %v", err)
		}
		rec2, err := decodeRecord(e1.b)
		if err != nil {
			t.Fatalf("re-decode of a re-encoded record failed: %v", err)
		}
		var e2 enc
		if err := encodeRecord(&e2, rec2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e1.b, e2.b) {
			t.Fatal("WAL record encoding is not a fixed point after one round trip")
		}
	})
}

// FuzzScrub feeds hostile bytes as an entire data directory — pack, manifest
// and WAL segment all at once — and demands Scrub classify the wreckage (or
// error) without ever panicking, with and without repair, and agree with the
// open: when a plain scrub finds nothing but crash debris, or a repairing one
// leaves nothing unrepaired, the directory opens and recovers (recoverDir);
// and whatever the open makes of the image, it leaves the pack as it was or
// cuts it exactly where the plain scrub reported a torn tail.
func FuzzScrub(f *testing.F) {
	f.Add([]byte(packMagic+"\x02\x00\x00\x00"), []byte(manifestMagic), []byte(walMagic))
	f.Add([]byte("ORPHPAK1\x02\x00\x00\x00garbage frame bytes"), []byte("not a manifest"),
		[]byte("ORPHWAL1\x03\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\xff\xff"))
	f.Add([]byte{}, []byte{}, []byte{})
	// A well-formed segment of real records, so mutations reach the record
	// decoder and the continuity check behind the frame CRC.
	segment := []byte("ORPHWAL1\x03\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00")
	for _, rec := range fuzzWALRecords() {
		frame, err := encodeFrame(rec)
		if err != nil {
			f.Fatal(err)
		}
		segment = append(segment, frame...)
	}
	f.Add([]byte{}, []byte{}, segment)
	// A checkpointed directory, so mutations reach the recovery behind the
	// framing: a CVD restored from the manifest — one version in full, one as
	// its delta — and a commit replayed onto it.
	pack, man, wal := fuzzScrubImage(f, false)
	f.Add(pack, man, wal)
	// The same with a hostile delta entry behind intact frames: the restore,
	// not the walk, must refuse it.
	hostilePack, hostileMan, hostileWAL := fuzzScrubImage(f, true)
	f.Add(hostilePack, hostileMan, hostileWAL)
	// The same with its first chunk's first byte flipped: a corrupt frame
	// mid-file, which the open must leave where it is.
	flipped := append([]byte(nil), pack...)
	flipped[packHeaderSize+packFrameOverhead] ^= 0x80
	f.Add(flipped, man, wal)
	f.Fuzz(func(t *testing.T, pack, man, wal []byte) {
		image := func() string {
			dir := t.TempDir()
			for name, data := range map[string][]byte{
				PackFile:              pack,
				ManifestFileName(1):   man,
				WALSegmentFileName(1): wal,
			} {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			return dir
		}
		dir := image()
		rep, err := Scrub(dir, ScrubOptions{})
		// The open repairs what it finds: it gets an image of its own.
		probe := image()
		openErr := recoverDir(probe)
		if err == nil && onlyDebris(rep) && openErr != nil {
			t.Fatalf("fsck finds only debris (%+v), yet the open fails: %v", rep.Issues, openErr)
		}
		if rep != nil {
			got, err := os.ReadFile(filepath.Join(probe, PackFile))
			if err != nil {
				t.Fatal(err)
			}
			if !packCutAsReported(pack, got, rep) {
				t.Fatalf("the open left a pack of %d bytes from %d; fsck reported %+v", len(got), len(pack), rep.Issues)
			}
		}
		if rep, err := Scrub(dir, ScrubOptions{Repair: true}); err == nil && rep.Unrepaired() == 0 {
			if err := recoverDir(dir); err != nil {
				t.Fatalf("fsck -repair leaves nothing unrepaired (%+v), yet the open fails: %v", rep.Issues, err)
			}
		}
	})
}

// fuzzScrubImage writes a directory holding one CVD — two versions, the
// second a small edit of the first, which its run stores as a delta —
// checkpointed at epoch 1, then committed to once more, and returns its pack,
// manifest and WAL segment. With hostile, the checkpoint's run is swapped for
// one whose delta drops a record version 1 does not hold, under a manifest
// rewritten to name it: every frame, hash and CRC is right, and restoring the
// checkpoint must refuse it as bad-versions.
func fuzzScrubImage(tb testing.TB, hostile bool) (pack, man, wal []byte) {
	dir := tb.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	db := relstore.NewDatabase("fuzz")
	rng := rand.New(rand.NewSource(9))
	rows := gateRows(rng, 0, 30)
	c, err := cvd.Init(db, "d", gateSchema(), rows, cvd.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := c.Commit([]vgraph.VersionID{1}, append(rows[:25:25], gateRows(rng, 30, 3)...), gateSchema(), "edit", "f"); err != nil {
		tb.Fatal(err)
	}
	snap := snapshotOf(tb, db, c)
	if tags, _ := entrySizes(tb, snap.CVDs[0]); tags[1] != recsetDelta {
		tb.Fatal("version 2 of the scrub image is not stored as its delta")
	}
	if _, err := s.Checkpoint(snap); err != nil {
		tb.Fatal(err)
	}
	if hostile {
		payload := runPayload(fullEntry(1, snap.CVDs[0].RecordSets[0].Set), deltaEntry(2, []int64{1000}, nil))
		h := hashChunk(payload)
		if _, err := s.pack.put(h, payload); err != nil {
			tb.Fatal(err)
		}
		if err := s.pack.sync(); err != nil {
			tb.Fatal(err)
		}
		m := s.manifests[1]
		m.cvds[0].runs[0] = h
		if _, err := writeManifestFile(s.fsys, dir, m); err != nil {
			tb.Fatal(err)
		}
	}
	c.SetJournal(s)
	if _, err := c.Commit([]vgraph.VersionID{2}, gateRows(rng, 20, 15), gateSchema(), "more", "f"); err != nil {
		tb.Fatal(err)
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	return read(PackFile), read(ManifestFileName(1)), read(WALSegmentFileName(1))
}

// onlyDebris reports that a scrub found nothing but crash debris.
func onlyDebris(rep *ScrubReport) bool {
	for _, is := range rep.Issues {
		if is.Kind != IssueTornWALTail && is.Kind != IssueTornPackTail {
			return false
		}
	}
	return true
}

// packCutAsReported is the physical half of the open agreeing with fsck: the
// open leaves the pack byte-identical, cuts it exactly where Scrub reported a
// torn tail, or, where Scrub reported it shorter than its header, writes the
// header.
func packCutAsReported(before, after []byte, rep *ScrubReport) bool {
	if bytes.Equal(before, after) {
		return true
	}
	for _, is := range rep.Issues {
		if is.Kind != IssueTornPackTail {
			continue
		}
		var off int
		if _, err := fmt.Sscanf(is.Detail, "pack ends mid-frame at offset %d", &off); err == nil {
			return off <= len(before) && bytes.Equal(after, before[:off])
		}
		return bytes.Equal(after, packHeader())
	}
	return false
}

// recoverDir opens dir and recovers it the way the engine's open does: the
// newest checkpoint restored, the WAL replayed onto it.
func recoverDir(dir string) error {
	s, res, err := Open(dir)
	if err != nil {
		return err
	}
	defer s.Close()
	rec := NewRecovery(relstore.NewDatabase(""), 0)
	if res.Snapshot != nil {
		if err := rec.Restore(res.Snapshot); err != nil {
			return err
		}
	}
	_, err = s.ReplayWAL(rec.Apply)
	return err
}
