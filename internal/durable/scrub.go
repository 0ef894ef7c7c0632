package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/cvd"
	"repro/internal/vfs"
	"repro/internal/vgraph"
)

// Scrub is the offline integrity checker behind `orpheus fsck`: it walks a
// closed data directory end to end — chunk pack frames (CRC and content
// hash), checkpoint manifests (file CRC plus every chunk reference),
// WAL segment framing and record decoding, and the manifest/segment epoch
// chain — classifies every defect it finds, and (with Repair) fixes what can
// be fixed without dropping committed history silently:
//
//   - a torn pack tail or torn active-WAL tail (crash debris) is truncated
//     away, exactly as recovery would;
//   - corrupt chunks no manifest references are compacted out of the pack;
//   - when the newest manifest references corrupt or missing chunks but an
//     older retained manifest is fully intact, the damaged manifests (and
//     the WAL segments stranded by the fallback) are quarantined with a
//     .corrupt suffix so the directory opens again at the older epoch — and
//     the report says exactly which epochs were lost;
//   - everything else (a torn sealed segment, a corrupt live chunk with no
//     intact fallback, an undecodable committed record) is reported with the
//     affected epochs and left untouched.

// IssueKind classifies one defect found by Scrub.
type IssueKind string

// The corruption classes Scrub distinguishes.
const (
	// IssueTornPackTail: the chunk pack ends mid-frame — a crashed append.
	// Repairable: the tail is unreferenced by construction (manifests are
	// written only after the pack is fsynced).
	IssueTornPackTail IssueKind = "torn-pack-tail"
	// IssueCorruptChunk: a pack frame whose payload fails its CRC or whose
	// content does not hash to the frame's chunk hash (mid-file corruption,
	// not a torn tail). Repairable by compaction only if no manifest
	// references it.
	IssueCorruptChunk IssueKind = "corrupt-chunk"
	// IssueDanglingRef: a manifest references a chunk the pack does not hold.
	IssueDanglingRef IssueKind = "dangling-ref"
	// IssueCorruptManifest: a manifest file fails its magic, CRC, or decode.
	IssueCorruptManifest IssueKind = "corrupt-manifest"
	// IssueTornWALTail: the active WAL segment ends mid-record — a crashed
	// append. Repairable: recovery would truncate it identically.
	IssueTornWALTail IssueKind = "torn-wal-tail"
	// IssueSealedWALTorn: a sealed segment ends mid-record. Every record in a
	// sealed segment was acknowledged, so this is committed-history loss —
	// never repaired silently.
	IssueSealedWALTorn IssueKind = "sealed-wal-torn"
	// IssueCorruptWALRecord: a record passes its frame CRC but does not
	// decode, or decodes but does not continue the state before it (a version
	// id, parent, or record id the log so far does not lead to) — mid-log
	// corruption of committed history.
	IssueCorruptWALRecord IssueKind = "corrupt-wal-record"
	// IssueBadCatalog: the newest usable manifest holds a CVD whose record
	// catalog table is missing, has the wrong schema, or is not dense (one row
	// per record id handed out, row r-1 carrying rid r): every chunk is intact,
	// yet the open refuses the directory (cvd.CheckCatalog).
	IssueBadCatalog IssueKind = "bad-catalog"
	// IssueBadVersions: the newest usable manifest holds a CVD whose versioning
	// table — its record-set runs — is not the history its head describes: a
	// run that does not decode, a version missing or out of order, a set whose
	// size disagrees with its version's node or metadata, or a record id never
	// handed out. Every chunk is intact, yet the open refuses the directory
	// (cvd.CheckVersions). Never repaired.
	IssueBadVersions IssueKind = "bad-versions"
	// IssueMissingWALSegment: the manifest/segment epoch chain has a hole.
	IssueMissingWALSegment IssueKind = "missing-wal-segment"
	// IssueUnopenable: after repairs, a full open of the directory still
	// fails (reported by Scrub's verification pass).
	IssueUnopenable IssueKind = "unopenable"
)

// ScrubIssue is one classified defect.
type ScrubIssue struct {
	Kind   IssueKind `json:"kind"`
	Path   string    `json:"path,omitempty"`
	Detail string    `json:"detail"`
	// Epochs lists the checkpoint epochs whose restorability the issue
	// affects (empty when none — e.g. a corrupt chunk nothing references).
	Epochs []uint64 `json:"epochs,omitempty"`
	// Repaired reports that a Repair run fixed this issue.
	Repaired bool `json:"repaired,omitempty"`
}

// ScrubReport is the outcome of one Scrub pass.
type ScrubReport struct {
	Issues []ScrubIssue `json:"issues"`
	// ChunksChecked counts pack frames whose CRC and content hash were
	// verified; ManifestsChecked and SegmentsChecked count files walked.
	ChunksChecked    int `json:"chunks_checked"`
	ManifestsChecked int `json:"manifests_checked"`
	SegmentsChecked  int `json:"segments_checked"`
	// Repairs counts repair actions taken (0 unless ScrubOptions.Repair).
	Repairs int `json:"repairs"`
}

// Healthy reports a defect-free directory.
func (r *ScrubReport) Healthy() bool { return len(r.Issues) == 0 }

// Unrepaired counts issues no repair fixed — the fsck exit-status signal.
func (r *ScrubReport) Unrepaired() int {
	n := 0
	for _, is := range r.Issues {
		if !is.Repaired {
			n++
		}
	}
	return n
}

func (r *ScrubReport) addIssue(is ScrubIssue) { r.Issues = append(r.Issues, is) }

// ScrubOptions configures Scrub.
type ScrubOptions struct {
	// Repair applies the safe repairs instead of only reporting.
	Repair bool
	// FS substitutes the filesystem (nil = the real one).
	FS vfs.FS
}

// Scrub checks the data directory at dir. It takes the directory's advisory
// lock for the duration — a directory held open by a live engine refuses to
// scrub. The returned report lists every defect found; err is reserved for
// I/O failures of the scrub itself (an unreadable directory) and for a
// directory this build refuses whole — a manifest of another version, a CVD of
// another model than split-by-rlist (cvd.ErrInMemoryModel) — not for
// corruption, which is always reported rather than returned.
func Scrub(dir string, opts ScrubOptions) (*ScrubReport, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = vfs.OS()
	}
	if _, err := fsys.Stat(dir); err != nil {
		return nil, err
	}
	lock, err := lockDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	rep := &ScrubReport{}
	scrubErr := scrubLocked(fsys, dir, opts, rep)
	lock.Close()
	if scrubErr != nil {
		return rep, scrubErr
	}
	// Verification pass: after a repair run, the directory must actually
	// open (full recovery path: manifest load, chunk hash verification, WAL
	// scan). The lock is released above so OpenFS can take it.
	if opts.Repair && rep.Repairs > 0 {
		s, _, err := OpenFS(dir, fsys)
		if err != nil {
			rep.addIssue(ScrubIssue{Kind: IssueUnopenable, Path: dir,
				Detail: fmt.Sprintf("directory still fails to open after repair: %v", err)})
		} else {
			s.Close()
		}
	}
	return rep, nil
}

// packState is the pack walk's outcome.
type packState struct {
	path      string
	exists    bool
	valid     map[ChunkHash]chunkLoc
	corrupt   map[ChunkHash]chunkLoc // frames present but failing CRC or hash
	tornAt    int64                  // file offset of a torn tail, -1 if none
	size      int64
	headerBad string // non-empty: the file is not a readable pack at all
}

// scanPackFile walks every pack frame, verifying both the frame CRC and the
// payload's content hash against the frame's chunk hash. Frames that fail
// either but carry a plausible length are skipped over (mid-file corruption
// must not hide the chunks after it); an implausible length or a short read
// at end of file is a torn tail.
func scanPackFile(fsys vfs.FS, path string, rep *ScrubReport) (*packState, error) {
	st := &packState{path: path, tornAt: -1,
		valid: make(map[ChunkHash]chunkLoc), corrupt: make(map[ChunkHash]chunkLoc)}
	f, err := vfs.Open(fsys, path)
	if err != nil {
		if os.IsNotExist(err) {
			return st, nil
		}
		return nil, err
	}
	defer f.Close()
	st.exists = true
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	st.size = info.Size()
	if st.size < packHeaderSize {
		st.headerBad = fmt.Sprintf("%d bytes is shorter than the pack header", st.size)
		return st, nil
	}
	var hdr [packHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, err
	}
	if string(hdr[:8]) != packMagic {
		st.headerBad = fmt.Sprintf("bad magic %q", hdr[:8])
		return st, nil
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != formatVersion {
		st.headerBad = fmt.Sprintf("unsupported format version %d (want %d)", v, formatVersion)
		return st, nil
	}
	off := int64(packHeaderSize)
	var frame [packFrameOverhead]byte
	for off < st.size {
		if st.size-off < packFrameOverhead {
			st.tornAt = off
			break
		}
		if _, err := f.ReadAt(frame[:], off); err != nil {
			return nil, err
		}
		var h ChunkHash
		copy(h[:], frame[:16])
		n := binary.LittleEndian.Uint32(frame[16:20])
		wantCRC := binary.LittleEndian.Uint32(frame[20:24])
		if int64(n) > st.size-off-packFrameOverhead {
			// The length field runs past end of file: either a torn append
			// or header rot that makes the rest of the file unparseable.
			st.tornAt = off
			break
		}
		payload := make([]byte, n)
		if _, err := f.ReadAt(payload, off+packFrameOverhead); err != nil {
			return nil, err
		}
		loc := chunkLoc{off: off + packFrameOverhead, n: n}
		rep.ChunksChecked++
		crcOK := crc32.ChecksumIEEE(payload) == wantCRC
		hashOK := hashChunk(payload) == h
		switch {
		case crcOK && hashOK:
			st.valid[h] = loc
		case !crcOK && off+packFrameOverhead+int64(n) == st.size:
			// A CRC failure in the file's very last frame is
			// indistinguishable from a crashed append: classify torn tail.
			st.tornAt = off
		default:
			st.corrupt[h] = loc
		}
		if st.tornAt >= 0 {
			break
		}
		off += packFrameOverhead + int64(n)
	}
	return st, nil
}

// manifestState is one manifest's scrub outcome.
type manifestState struct {
	epoch    uint64
	path     string
	m        *manifest // nil when the file itself is corrupt
	dangling []ChunkHash
	corrupt  []ChunkHash
}

func (ms *manifestState) usable() bool {
	return ms.m != nil && len(ms.dangling) == 0 && len(ms.corrupt) == 0
}

// walState is one WAL segment's scrub outcome.
type walState struct {
	epoch     uint64
	path      string
	headerErr error
	validEnd  int64
	torn      bool
	recordErr error // a CRC-valid record that does not decode or does not continue the log
	records   int
}

// walCursor is where one CVD's log must continue.
type walCursor struct {
	nextVID vgraph.VersionID
	nextRID vgraph.RecordID
}

// walCursors follows a WAL chain record by record and checks the counters a
// scrub can follow from the CVD heads alone: the version id, that the parents
// lie below it (version ids are dense), and the first added record id. That is
// a subset of what the open verifies, not a second copy of it: the rule lives
// in cvd's replay, which also checks the remaining added rids, the tombstones
// and the schema against state a scrub does not load. A record that fails here
// is refused by the open too; one that passes may still be.
type walCursors map[string]walCursor

// cursorsOf starts a chain at the state a recovery root holds.
func cursorsOf(cvds []*cvd.PersistentState) walCursors {
	cur := make(walCursors, len(cvds))
	for _, st := range cvds {
		cur[st.Name] = walCursor{nextVID: st.NextVID, nextRID: st.NextRID}
	}
	return cur
}

// advance checks that rec continues the chain and steps past it.
func (cur walCursors) advance(rec *Record) error {
	c, known := cur[rec.CVD]
	switch rec.Op {
	case OpDrop:
		delete(cur, rec.CVD) // dropping an unknown CVD is a tolerated no-op
		return nil
	case OpInit:
		if known {
			return fmt.Errorf("init of CVD %q, which already exists", rec.CVD)
		}
		c = walCursor{nextVID: 1, nextRID: 1}
	case OpCommit:
		if !known {
			return fmt.Errorf("commit to unknown CVD %q", rec.CVD)
		}
	}
	v, parents := rec.Versions[0], rec.Versions[1:]
	if v != c.nextVID {
		return fmt.Errorf("CVD %q: version %d does not continue the history (next version is %d)", rec.CVD, v, c.nextVID)
	}
	if (rec.Op == OpInit) != (len(parents) == 0) {
		return fmt.Errorf("CVD %q: version %d has %d parents", rec.CVD, v, len(parents))
	}
	for _, p := range parents {
		if p < 1 || p >= v {
			return fmt.Errorf("CVD %q: version %d names unknown parent version %d", rec.CVD, v, p)
		}
	}
	n, first := rec.added()
	if n > 0 && first != c.nextRID {
		return fmt.Errorf("CVD %q: version %d adds record %d where the next record id is %d", rec.CVD, v, first, c.nextRID)
	}
	cur[rec.CVD] = walCursor{nextVID: v + 1, nextRID: c.nextRID + vgraph.RecordID(n)}
	return nil
}

// scanWALSegment validates one segment: header, framing, and a full decode
// of every CRC-valid record (a record that passes its CRC but does not
// decode is mid-log corruption, not a torn tail). With cursors, every record
// must also continue the chain they follow.
func scanWALSegment(fsys vfs.FS, path string, epoch uint64, cursors walCursors) (*walState, error) {
	ws := &walState{epoch: epoch, path: path}
	f, err := vfs.Open(fsys, path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if info.Size() < walHeaderSize {
		// Crash inside BeginCheckpoint before the new segment's header
		// landed; recovery completes the header, so this is only a torn tail
		// when the segment is sealed.
		ws.validEnd = walHeaderSize
		ws.torn = info.Size() > 0
		return ws, nil
	}
	e, err := readWALHeader(f)
	if err != nil {
		ws.headerErr = err
		return ws, nil
	}
	if e != epoch {
		ws.headerErr = fmt.Errorf("segment carries epoch %d, name says %d", e, epoch)
		return ws, nil
	}
	ws.validEnd, ws.torn, err = scanWAL(f)
	if err != nil {
		return nil, err
	}
	// Decode pass over the valid region.
	offset := int64(walHeaderSize)
	var hdr [8]byte
	for offset < ws.validEnd {
		if _, err := f.ReadAt(hdr[:], offset); err != nil {
			return nil, err
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		payload := make([]byte, n)
		if _, err := f.ReadAt(payload, offset+int64(len(hdr))); err != nil {
			return nil, err
		}
		rec, err := decodeRecord(payload)
		if errors.Is(err, cvd.ErrInMemoryModel) {
			return nil, fmt.Errorf("durable: WAL segment %s record %d: %w", path, ws.records, err)
		}
		if err == nil && cursors != nil {
			err = cursors.advance(rec)
		}
		if err != nil {
			ws.recordErr = fmt.Errorf("record %d: %w", ws.records, err)
			break
		}
		ws.records++
		offset += int64(len(hdr)) + int64(n)
	}
	return ws, nil
}

// scrubLocked runs the actual analysis (and repairs) under the directory
// lock.
func scrubLocked(fsys vfs.FS, dir string, opts ScrubOptions, rep *ScrubReport) error {
	listing, err := listDataDir(fsys, dir)
	if err != nil {
		return err
	}
	if err := listing.refuseFlatExport(dir); err != nil {
		return err
	}
	packPath := filepath.Join(dir, PackFile)
	pack, err := scanPackFile(fsys, packPath, rep)
	if err != nil {
		return err
	}
	if pack.headerBad != "" {
		rep.addIssue(ScrubIssue{Kind: IssueCorruptChunk, Path: packPath,
			Detail: "pack header unreadable: " + pack.headerBad})
	}
	if pack.tornAt >= 0 {
		is := ScrubIssue{Kind: IssueTornPackTail, Path: packPath,
			Detail: fmt.Sprintf("pack ends mid-frame at offset %d (file size %d)", pack.tornAt, pack.size)}
		if opts.Repair {
			if err := truncateFile(fsys, packPath, pack.tornAt); err != nil {
				is.Detail += fmt.Sprintf("; truncate failed: %v", err)
			} else {
				is.Repaired = true
				rep.Repairs++
			}
		}
		rep.addIssue(is)
	}

	// Manifests: file integrity plus every chunk reference.
	var manifests []*manifestState
	for _, e := range listing.manifests {
		ms := &manifestState{epoch: e, path: filepath.Join(dir, ManifestFileName(e))}
		rep.ManifestsChecked++
		m, err := readManifestFile(fsys, ms.path)
		if errors.Is(err, errManifestVersion) {
			return err // another build's directory, not a damaged one
		}
		if err != nil {
			rep.addIssue(ScrubIssue{Kind: IssueCorruptManifest, Path: ms.path,
				Detail: err.Error(), Epochs: []uint64{e}})
		} else if m.epoch != e {
			rep.addIssue(ScrubIssue{Kind: IssueCorruptManifest, Path: ms.path,
				Detail: fmt.Sprintf("manifest carries epoch %d, name says %d", m.epoch, e),
				Epochs: []uint64{e}})
		} else {
			ms.m = m
			seen := make(map[ChunkHash]struct{})
			m.chunkRefs(func(h ChunkHash) {
				if _, dup := seen[h]; dup {
					return
				}
				seen[h] = struct{}{}
				if _, ok := pack.valid[h]; ok {
					return
				}
				if _, ok := pack.corrupt[h]; ok {
					ms.corrupt = append(ms.corrupt, h)
				} else {
					ms.dangling = append(ms.dangling, h)
				}
			})
			for _, h := range ms.corrupt {
				rep.addIssue(ScrubIssue{Kind: IssueCorruptChunk, Path: packPath,
					Detail: fmt.Sprintf("live chunk %s fails CRC/content-hash verification (referenced by epoch %d)", h, e),
					Epochs: []uint64{e}})
			}
			for _, h := range ms.dangling {
				rep.addIssue(ScrubIssue{Kind: IssueDanglingRef, Path: ms.path,
					Detail: fmt.Sprintf("manifest references chunk %s which the pack does not hold", h),
					Epochs: []uint64{e}})
			}
		}
		manifests = append(manifests, ms)
	}

	// The recovery root Scrub will hold the directory to: the newest usable
	// manifest, or the empty state of a directory never checkpointed.
	bestUsable := -1
	for i := len(manifests) - 1; i >= 0; i-- {
		if manifests[i].usable() {
			bestUsable = i
			break
		}
	}
	var base uint64
	haveRoot := false
	var cursors walCursors // the root's CVDs, when their heads are readable
	if bestUsable >= 0 {
		base = manifests[bestUsable].epoch
		haveRoot = true
		heads, bad, err := readCVDHeads(fsys, pack, manifests[bestUsable].m)
		if errors.Is(err, cvd.ErrInMemoryModel) {
			return fmt.Errorf("durable: %s: %w", manifests[bestUsable].path, err)
		}
		if err == nil {
			cursors = cursorsOf(heads)
			for _, is := range bad {
				is.Path, is.Epochs = manifests[bestUsable].path, []uint64{base}
				rep.addIssue(is)
			}
		}
	} else if len(manifests) == 0 {
		haveRoot = true
		cursors = walCursors{}
	}

	// Quarantine fallback: the newest manifests are damaged but an older one
	// is intact. Renaming the damaged manifests (and the WAL segments the
	// fallback strands — their records build on checkpoints that are gone)
	// to .corrupt lets the directory open again at the older epoch. The lost
	// epochs are reported, never dropped silently.
	newestDamaged := len(manifests) > 0 && !manifests[len(manifests)-1].usable()
	if newestDamaged && bestUsable >= 0 && opts.Repair {
		var lost []uint64
		ok := true
		for _, ms := range manifests[bestUsable+1:] {
			if err := fsys.Rename(ms.path, ms.path+".corrupt"); err != nil {
				ok = false
				break
			}
			lost = append(lost, ms.epoch)
			rep.Repairs++
		}
		if ok {
			fsys.SyncDir(dir)
			manifests = manifests[:bestUsable+1]
			rep.addIssue(ScrubIssue{Kind: IssueCorruptManifest, Path: dir, Repaired: true,
				Detail: fmt.Sprintf("fell back to intact manifest epoch %d; quarantined %d damaged newer manifest(s) as .corrupt — epochs %v are no longer restorable", base, len(lost), lost),
				Epochs: lost})
		}
	} else if newestDamaged && bestUsable < 0 && len(manifests) > 0 {
		rep.addIssue(ScrubIssue{Kind: IssueCorruptManifest, Path: dir,
			Detail: "no intact manifest remains; the directory cannot be repaired from checkpoints",
			Epochs: manifestEpochsOf(manifests)})
	}

	// WAL segments: framing, record decode, and chain contiguity from base.
	var chain []walSegment
	for _, seg := range listing.segments {
		if seg.epoch < base {
			continue // stale: recovery deletes these, content already checkpointed
		}
		chain = append(chain, seg)
	}
	if haveRoot && len(chain) > 0 {
		if chain[0].epoch != base {
			is := ScrubIssue{Kind: IssueMissingWALSegment, Path: dir,
				Detail: fmt.Sprintf("WAL segment for epoch %d is missing (oldest present is %d); commits since checkpoint %d are stranded", base, chain[0].epoch, base),
				Epochs: []uint64{base}}
			if opts.Repair {
				// The stranded segments' records build on state that no
				// longer exists; quarantine them so the directory opens at
				// the base checkpoint.
				ok := true
				var lostEpochs []uint64
				for _, seg := range chain {
					if err := fsys.Rename(seg.path, seg.path+".corrupt"); err != nil {
						ok = false
						break
					}
					lostEpochs = append(lostEpochs, seg.epoch)
					rep.Repairs++
				}
				if ok {
					fsys.SyncDir(dir)
					is.Repaired = true
					is.Detail += fmt.Sprintf("; quarantined stranded segment(s) %v as .corrupt — their records are no longer replayable", lostEpochs)
					chain = nil
				}
			}
			rep.addIssue(is)
		} else {
			for i := 1; i < len(chain); i++ {
				if chain[i].epoch != chain[i-1].epoch+1 {
					rep.addIssue(ScrubIssue{Kind: IssueMissingWALSegment, Path: dir,
						Detail: fmt.Sprintf("WAL segments %d and %d are not contiguous", chain[i-1].epoch, chain[i].epoch),
						Epochs: []uint64{chain[i-1].epoch + 1}})
					break
				}
			}
		}
	}
	if len(chain) > 0 && chain[0].epoch != base {
		cursors = nil // the chain does not start at the root: nothing to continue
	}
	for i, seg := range chain {
		active := i == len(chain)-1
		rep.SegmentsChecked++
		if i > 0 && seg.epoch != chain[i-1].epoch+1 {
			cursors = nil // nothing to continue across a hole in the chain
		}
		ws, err := scanWALSegment(fsys, seg.path, seg.epoch, cursors)
		if err != nil {
			return err
		}
		if ws.headerErr != nil || ws.recordErr != nil || ws.torn {
			cursors = nil // nor past a damaged stretch
		}
		switch {
		case ws.headerErr != nil:
			rep.addIssue(ScrubIssue{Kind: IssueCorruptWALRecord, Path: seg.path,
				Detail: "WAL header unreadable: " + ws.headerErr.Error(), Epochs: []uint64{seg.epoch}})
		case ws.recordErr != nil:
			rep.addIssue(ScrubIssue{Kind: IssueCorruptWALRecord, Path: seg.path,
				Detail: "committed record does not decode or does not continue the log: " + ws.recordErr.Error(), Epochs: []uint64{seg.epoch}})
		case ws.torn && !active:
			rep.addIssue(ScrubIssue{Kind: IssueSealedWALTorn, Path: seg.path,
				Detail: fmt.Sprintf("sealed segment ends mid-record at offset %d — committed history is damaged; refusing to truncate", ws.validEnd),
				Epochs: []uint64{seg.epoch}})
		case ws.torn && active:
			is := ScrubIssue{Kind: IssueTornWALTail, Path: seg.path,
				Detail: fmt.Sprintf("active segment ends mid-record at offset %d (a crashed append); the torn bytes were never acknowledged", ws.validEnd),
				Epochs: []uint64{seg.epoch}}
			if opts.Repair {
				if err := truncateFile(fsys, seg.path, ws.validEnd); err != nil {
					is.Detail += fmt.Sprintf("; truncate failed: %v", err)
				} else {
					is.Repaired = true
					rep.Repairs++
				}
			}
			rep.addIssue(is)
		}
	}

	// Dead corrupt chunks: compact them out of the pack. Live ones must stay
	// in place — dropping the frame would turn a detectable hash mismatch
	// into a dangling reference.
	if len(pack.corrupt) > 0 && opts.Repair {
		live := make(map[ChunkHash]struct{})
		for _, ms := range manifests {
			if ms.m != nil {
				ms.m.chunkRefs(func(h ChunkHash) { live[h] = struct{}{} })
			}
		}
		dead := 0
		anyLive := false
		for h := range pack.corrupt {
			if _, ok := live[h]; ok {
				anyLive = true
			} else {
				dead++
			}
		}
		if dead > 0 && !anyLive {
			is := ScrubIssue{Kind: IssueCorruptChunk, Path: packPath,
				Detail: fmt.Sprintf("compacted %d corrupt unreferenced chunk frame(s) out of the pack", dead)}
			if err := rewritePackDroppingCorrupt(fsys, packPath, pack); err != nil {
				is.Detail = fmt.Sprintf("compacting %d corrupt unreferenced chunk frame(s) failed: %v", dead, err)
			} else {
				is.Repaired = true
				rep.Repairs++
			}
			rep.addIssue(is)
		}
	}
	// Corrupt chunks nothing references (reported even without Repair so a
	// plain fsck run shows them).
	if !opts.Repair {
		live := make(map[ChunkHash]struct{})
		for _, ms := range manifests {
			if ms.m != nil {
				ms.m.chunkRefs(func(h ChunkHash) { live[h] = struct{}{} })
			}
		}
		for h := range pack.corrupt {
			if _, ok := live[h]; !ok {
				rep.addIssue(ScrubIssue{Kind: IssueCorruptChunk, Path: packPath,
					Detail: fmt.Sprintf("unreferenced chunk %s fails CRC/content-hash verification (safe to compact away with -repair)", h)})
			}
		}
	}
	return nil
}

// readCVDHeads decodes the CVD head chunks a manifest references, for the
// version and record counters the WAL after it must continue from, and checks
// each CVD's record catalog and versioning table the way the open will (bad
// lists the failures as issues for the caller to place).
func readCVDHeads(fsys vfs.FS, pack *packState, m *manifest) (heads []*cvd.PersistentState, bad []ScrubIssue, err error) {
	f, err := vfs.Open(fsys, pack.path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	get := func(h ChunkHash) ([]byte, error) {
		loc := pack.valid[h] // present: the manifest is usable
		payload := make([]byte, loc.n)
		_, err := f.ReadAt(payload, loc.off)
		return payload, err
	}
	for i := range m.cvds {
		mc := &m.cvds[i]
		st, err := mc.decodeHead(get)
		if err != nil {
			return nil, nil, err
		}
		heads = append(heads, st)
		if err := checkCatalog(st, m, get); err != nil {
			bad = append(bad, ScrubIssue{Kind: IssueBadCatalog, Detail: err.Error()})
		}
		err = mc.addRecordSets(st, get)
		if err == nil {
			err = cvd.CheckVersions(st)
		}
		if err != nil {
			bad = append(bad, ScrubIssue{Kind: IssueBadVersions, Detail: err.Error()})
		}
	}
	return heads, bad, nil
}

// checkCatalog assembles the data table of st — its record catalog — from m's
// chunks and verifies it as cvd.Restore does.
func checkCatalog(st *cvd.PersistentState, m *manifest, get func(ChunkHash) ([]byte, error)) error {
	for i := range m.tables {
		if mt := &m.tables[i]; mt.meta.name == st.DataTable() {
			t, err := mt.assemble(get)
			if err != nil {
				return err
			}
			return cvd.CheckCatalog(st, t)
		}
	}
	return fmt.Errorf("durable: CVD %s: the manifest lists no data table %q", st.Name, st.DataTable())
}

func manifestEpochsOf(ms []*manifestState) []uint64 {
	out := make([]uint64, len(ms))
	for i, m := range ms {
		out[i] = m.epoch
	}
	return out
}

// truncateFile truncates path to size and syncs it.
func truncateFile(fsys vfs.FS, path string, size int64) error {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// rewritePackDroppingCorrupt streams every valid frame of the pack into a
// temp file and renames it over — the fsck sibling of chunkPack.compact,
// keeping all valid chunks (live or dead; retention GC owns dead-chunk
// collection) and dropping only frames that fail verification.
func rewritePackDroppingCorrupt(fsys vfs.FS, path string, pack *packState) error {
	src, err := vfs.Open(fsys, path)
	if err != nil {
		return err
	}
	defer src.Close()
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, ".chunks-*.tmp")
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name())
	var hdr [packHeaderSize]byte
	copy(hdr[:8], packMagic)
	binary.LittleEndian.PutUint32(hdr[8:], formatVersion)
	if _, err := tmp.Write(hdr[:]); err != nil {
		tmp.Close()
		return err
	}
	// Deterministic output order: by source offset.
	type entry struct {
		h   ChunkHash
		loc chunkLoc
	}
	entries := make([]entry, 0, len(pack.valid))
	for h, loc := range pack.valid {
		entries = append(entries, entry{h, loc})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].loc.off < entries[j].loc.off })
	var frame [packFrameOverhead]byte
	for _, ent := range entries {
		payload := make([]byte, ent.loc.n)
		if _, err := src.ReadAt(payload, ent.loc.off); err != nil {
			tmp.Close()
			return err
		}
		if got := hashChunk(payload); got != ent.h {
			tmp.Close()
			return fmt.Errorf("chunk %s changed under scrub (now hashes %s)", ent.h, got)
		}
		copy(frame[:16], ent.h[:])
		binary.LittleEndian.PutUint32(frame[16:20], ent.loc.n)
		binary.LittleEndian.PutUint32(frame[20:24], crc32.ChecksumIEEE(payload))
		if _, err := tmp.Write(frame[:]); err != nil {
			tmp.Close()
			return err
		}
		if _, err := tmp.Write(payload); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}
