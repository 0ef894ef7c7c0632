package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cvd"
	"repro/internal/relstore"
	"repro/internal/vfs"
)

// Scrub is the offline integrity checker behind `orpheus fsck`. It walks a
// closed data directory end to end — chunk pack frames (the open's own walk,
// read-only, with the content hash checked on top of each CRC), checkpoint
// manifests (file CRC plus every chunk reference), WAL segment headers and
// framing, and the manifest/segment epoch chain — and
// then runs the open's own recovery over what it found (Recovery): every
// usable retained checkpoint is restored as point-in-time restore would
// restore it, and every WAL record is decoded and, from the recovery root
// on, replayed as the open replays it. It classifies every defect, and (with
// Repair) fixes what can be fixed without dropping committed history
// silently:
//
//   - a torn pack tail or torn active-WAL tail (crash debris), or a pack or
//     active segment shorter than its header, is truncated away or given its
//     header, exactly as the open would;
//   - corrupt chunks no manifest references are compacted out of the pack;
//   - the WAL segments a hole in the epoch chain strands are quarantined;
//   - when the newest manifest references corrupt or missing chunks but an
//     older retained manifest is fully intact, the damaged manifests (and
//     the WAL segments stranded by the fallback) are quarantined with a
//     .corrupt suffix so the directory opens again at the older epoch — and
//     the report says exactly which epochs were lost;
//   - everything else (a torn sealed segment, a corrupt live chunk with no
//     intact fallback, a checkpoint or record the recovery refuses) is
//     reported with the affected epochs and left untouched.

// IssueKind classifies one defect found by Scrub.
type IssueKind string

// The corruption classes Scrub distinguishes.
const (
	// IssueTornPackTail: the chunk pack ends mid-frame — a crashed append —
	// or is shorter than its header — a crash while creating it. Repairable:
	// the tail is unreferenced by construction (manifests are written only
	// after the pack is fsynced).
	IssueTornPackTail IssueKind = "torn-pack-tail"
	// IssueCorruptChunk: a pack frame whose payload fails its CRC or whose
	// content does not hash to the frame's chunk hash (mid-file corruption,
	// not a torn tail), or a pack header of another magic or version.
	// Repairable by compaction only if no manifest references it.
	IssueCorruptChunk IssueKind = "corrupt-chunk"
	// IssueDanglingRef: a manifest references a chunk the pack does not hold.
	IssueDanglingRef IssueKind = "dangling-ref"
	// IssueCorruptManifest: a manifest file fails its magic, CRC, or decode.
	IssueCorruptManifest IssueKind = "corrupt-manifest"
	// IssueTornWALTail: the active WAL segment ends mid-record — a crashed
	// append — or is shorter than its header. Repairable: the open truncates
	// it, or writes the header, identically.
	IssueTornWALTail IssueKind = "torn-wal-tail"
	// IssueSealedWALTorn: a sealed segment ends mid-record. Every record in a
	// sealed segment was acknowledged, so this is committed-history loss —
	// never repaired silently.
	IssueSealedWALTorn IssueKind = "sealed-wal-torn"
	// IssueCorruptWALRecord: a segment header that is not its own, or a record
	// that passes its frame CRC but does not decode, or that the open's replay
	// refuses (Recovery.Apply: a version id, parent, tombstone, added record
	// id or schema the log so far does not lead to) — mid-log corruption of
	// committed history. The detail is the open's sentence.
	IssueCorruptWALRecord IssueKind = "corrupt-wal-record"
	// IssueBadCatalog: a usable retained manifest holds a CVD whose record
	// catalog table is missing, has the wrong schema, or is not dense (one row
	// per record id handed out, row r-1 carrying rid r): every chunk is intact,
	// yet restoring the epoch fails (cvd.ErrBadCatalog), with the sentence the
	// detail repeats. Never repaired.
	IssueBadCatalog IssueKind = "bad-catalog"
	// IssueBadVersions: a usable retained manifest holds a CVD whose
	// versioning table — its record-set runs — is not the history its head
	// describes: a version missing or out of order, a set whose size disagrees
	// with its version's node or metadata, a record id never handed out, a
	// parent no older than its child, or a delta entry that does not continue
	// its parents' union (or an entry of an unknown tag). Every chunk is
	// intact, yet restoring the epoch fails
	// (cvd.ErrBadVersions), with the sentence the detail repeats. Never
	// repaired.
	IssueBadVersions IssueKind = "bad-versions"
	// IssueMissingWALSegment: the manifest/segment epoch chain has a hole —
	// the first one, in the sentence the open fails with. Repairable by
	// quarantining the segments it strands.
	IssueMissingWALSegment IssueKind = "missing-wal-segment"
	// IssueUnopenable: a usable retained manifest whose chunks are all intact
	// does not load or restore for another reason than its catalog or its
	// versioning table — a CVD head or a table that does not decode or
	// assemble. The detail is the open's (or OpenAtEpoch's) sentence.
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
	// LiveBytes is the payload bytes of the pack's live chunks — each chunk a
	// readable retained manifest references, once — by chunk kind.
	LiveBytes KindBytes `json:"live_bytes"`
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
// corruption, which is always reported rather than returned. The recovery
// pass runs after the repairs, so a repaired directory is one the open
// recovers.
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
	defer lock.Close()
	rep := &ScrubReport{}
	return rep, scrubLocked(fsys, dir, opts, rep)
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

// scrubLocked runs the actual analysis (and repairs) under the directory
// lock.
func scrubLocked(fsys vfs.FS, dir string, opts ScrubOptions, rep *ScrubReport) error {
	// repair applies fix to is when repairing, and records the outcome.
	repair := func(is *ScrubIssue, fix func() error) {
		if !opts.Repair {
			return
		}
		if err := fix(); err != nil {
			is.Detail += fmt.Sprintf("; repair failed: %v", err)
			return
		}
		is.Repaired = true
		rep.Repairs++
	}
	listing, err := listDataDir(fsys, dir)
	if err != nil {
		return err
	}
	if err := listing.refuseFlatExport(dir); err != nil {
		return err
	}
	// The pack: the open's walk, read-only, with the content hash checked on
	// top of each frame's CRC.
	packPath := filepath.Join(dir, PackFile)
	pack, scan, err := openPack(fsys, packPath, false, func(h ChunkHash, payload []byte) bool {
		return hashChunk(payload) == h
	})
	if err != nil {
		return err
	}
	defer pack.close()
	rep.ChunksChecked = scan.frames
	switch {
	case scan.bad != nil:
		rep.addIssue(ScrubIssue{Kind: IssueCorruptChunk, Path: packPath,
			Detail: scan.bad.Error()})
	case scan.short:
		is := ScrubIssue{Kind: IssueTornPackTail, Path: packPath,
			Detail: fmt.Sprintf("pack of %d bytes is shorter than its header (a crash while creating it); the open writes the header afresh", scan.size)}
		repair(&is, func() error { return editFile(fsys, packPath, writePackHeader) })
		rep.addIssue(is)
	case scan.tornAt >= 0:
		is := ScrubIssue{Kind: IssueTornPackTail, Path: packPath,
			Detail: fmt.Sprintf("pack ends mid-frame at offset %d (file size %d)", scan.tornAt, scan.size)}
		repair(&is, func() error {
			return editFile(fsys, packPath, func(f vfs.File) error { return truncateTail(f, scan.tornAt) })
		})
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
			m.chunkRefs(func(h ChunkHash, _ uint8) {
				if _, dup := seen[h]; dup {
					return
				}
				seen[h] = struct{}{}
				if _, ok := pack.idx[h]; ok {
					return
				}
				if _, ok := scan.corrupt[h]; ok {
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
	root := -1
	for i := len(manifests) - 1; i >= 0; i-- {
		if manifests[i].usable() {
			root = i
			break
		}
	}
	var base uint64
	if root >= 0 {
		base = manifests[root].epoch
	}
	haveRoot := root >= 0 || len(manifests) == 0

	// Quarantine fallback: the newest manifests are damaged but an older one
	// is intact. Renaming the damaged manifests (and the WAL segments the
	// fallback strands — their records build on checkpoints that are gone)
	// to .corrupt lets the directory open again at the older epoch. The lost
	// epochs are reported, never dropped silently.
	newestDamaged := len(manifests) > 0 && !manifests[len(manifests)-1].usable()
	if newestDamaged && root >= 0 && opts.Repair {
		var lost []uint64
		ok := true
		for _, ms := range manifests[root+1:] {
			if err := fsys.Rename(ms.path, ms.path+".corrupt"); err != nil {
				ok = false
				break
			}
			lost = append(lost, ms.epoch)
			rep.Repairs++
		}
		if ok {
			fsys.SyncDir(dir)
			manifests = manifests[:root+1]
			rep.addIssue(ScrubIssue{Kind: IssueCorruptManifest, Path: dir, Repaired: true,
				Detail: fmt.Sprintf("fell back to intact manifest epoch %d; quarantined %d damaged newer manifest(s) as .corrupt — epochs %v are no longer restorable", base, len(lost), lost),
				Epochs: lost})
		}
	} else if newestDamaged && root < 0 {
		rep.addIssue(ScrubIssue{Kind: IssueCorruptManifest, Path: dir,
			Detail: "no intact manifest remains; the directory cannot be repaired from checkpoints",
			Epochs: manifestEpochsOf(manifests)})
	}

	// WAL segments: chain contiguity from base, then each segment's header
	// and framing.
	var chain []walSegment
	for _, seg := range listing.segments {
		if seg.epoch < base {
			continue // stale: recovery deletes these, content already checkpointed
		}
		chain = append(chain, seg)
	}
	if from, err := walChainHole(base, chain); haveRoot && err != nil {
		missing := base
		if from > 0 {
			missing = chain[from-1].epoch + 1
		}
		is := ScrubIssue{Kind: IssueMissingWALSegment, Path: dir, Detail: err.Error(), Epochs: []uint64{missing}}
		// The stranded segments' records build on state that no longer
		// exists; quarantining them lets the directory open without them.
		repair(&is, func() error {
			var lost []uint64
			for _, seg := range chain[from:] {
				if err := fsys.Rename(seg.path, seg.path+".corrupt"); err != nil {
					return err
				}
				lost = append(lost, seg.epoch)
			}
			chain = chain[:from]
			is.Detail += fmt.Sprintf("; quarantined stranded segment(s) %v as .corrupt — their records are no longer replayable", lost)
			return fsys.SyncDir(dir)
		})
		rep.addIssue(is)
	}
	segs := make([]*walState, len(chain))
	for i, seg := range chain {
		active := i == len(chain)-1
		rep.SegmentsChecked++
		ws, err := scanWALSegment(fsys, seg, active)
		if err != nil {
			return err
		}
		segs[i] = ws
		switch {
		case ws.headerErr != nil:
			rep.addIssue(ScrubIssue{Kind: IssueCorruptWALRecord, Path: seg.path,
				Detail: ws.headerErr.Error(), Epochs: []uint64{seg.epoch}})
		case ws.torn && !active:
			rep.addIssue(ScrubIssue{Kind: IssueSealedWALTorn, Path: seg.path,
				Detail: fmt.Sprintf("sealed segment ends mid-record at offset %d — committed history is damaged; refusing to truncate", ws.validEnd),
				Epochs: []uint64{seg.epoch}})
		case ws.torn && ws.short:
			is := ScrubIssue{Kind: IssueTornWALTail, Path: seg.path,
				Detail: "active segment is shorter than its header (a crash while a checkpoint started it); the open writes the header afresh",
				Epochs: []uint64{seg.epoch}}
			repair(&is, func() error {
				return editFile(fsys, seg.path, func(f vfs.File) error { return writeWALHeader(f, seg.epoch) })
			})
			rep.addIssue(is)
		case ws.torn:
			is := ScrubIssue{Kind: IssueTornWALTail, Path: seg.path,
				Detail: fmt.Sprintf("active segment ends mid-record at offset %d (a crashed append); the torn bytes were never acknowledged", ws.validEnd),
				Epochs: []uint64{seg.epoch}}
			repair(&is, func() error {
				return editFile(fsys, seg.path, func(f vfs.File) error { return truncateTail(f, ws.validEnd) })
			})
			rep.addIssue(is)
		}
	}

	if err := recoverAsOpen(fsys, pack, manifests, root, haveRoot, segs, rep); err != nil {
		return err
	}

	// Corrupt chunks nothing references: reported, or with Repair compacted
	// out of the pack. Live ones must stay in place — dropping the frame
	// would turn a detectable hash mismatch into a dangling reference.
	live := make(map[ChunkHash]struct{})
	for _, ms := range manifests {
		if ms.m != nil {
			ms.m.chunkRefs(func(h ChunkHash, k uint8) {
				if _, dup := live[h]; dup {
					return
				}
				live[h] = struct{}{}
				if n, ok := pack.sizeOf(h); ok {
					rep.LiveBytes.add(k, int64(n))
				}
			})
		}
	}
	dead, anyLive := 0, false
	for h := range scan.corrupt {
		if _, ok := live[h]; ok {
			anyLive = true
			continue
		}
		dead++
		if !opts.Repair {
			rep.addIssue(ScrubIssue{Kind: IssueCorruptChunk, Path: packPath,
				Detail: fmt.Sprintf("unreferenced chunk %s fails CRC/content-hash verification (safe to compact away with -repair)", h)})
		}
	}
	if opts.Repair && dead > 0 && !anyLive {
		is := ScrubIssue{Kind: IssueCorruptChunk, Path: packPath,
			Detail: fmt.Sprintf("%d corrupt unreferenced chunk frame(s), compacted out of the pack on repair", dead)}
		repair(&is, func() error {
			valid := make(map[ChunkHash]struct{}, len(pack.idx))
			for h := range pack.idx {
				valid[h] = struct{}{}
			}
			return pack.compact(valid)
		})
		rep.addIssue(is)
	}
	return nil
}

// recoverAsOpen runs the open's recovery (Recovery) over what the walk found.
// Every usable retained manifest is loaded and restored into a throw-away
// database, as OpenAtEpoch restores it; then the chain's records are replayed
// onto the recovery root (the manifest at index root, or the empty state when
// haveRoot and there is none), each segment up to where its valid records
// end, as the open replays them. A segment the open would never reach — past
// a hole or a damaged stretch, or with no root to continue — is still decoded
// record by record. A refusal is reported in the open's own sentence.
func recoverAsOpen(fsys vfs.FS, pack *chunkPack, manifests []*manifestState, root int, haveRoot bool, segs []*walState, rep *ScrubReport) error {
	var rec *Recovery // the recovery root, once restored
	if haveRoot && root < 0 {
		rec = NewRecovery(relstore.NewDatabase(""), 0)
	}
	base := uint64(0)
	for i, ms := range manifests {
		if !ms.usable() {
			continue
		}
		r := NewRecovery(relstore.NewDatabase(""), 0)
		snap, _, err := loadSnapshotFromManifest(ms.m, pack.get, 0)
		if err == nil {
			err = r.Restore(snap)
		}
		switch {
		case errors.Is(err, cvd.ErrInMemoryModel):
			return fmt.Errorf("durable: %s: %w", ms.path, err)
		case err != nil:
			rep.addIssue(ScrubIssue{Kind: refusalKind(err), Path: ms.path, Detail: err.Error(), Epochs: []uint64{ms.epoch}})
		case i == root:
			rec, base = r, ms.epoch
		}
	}

	reach := rec != nil && len(segs) > 0 && segs[0].epoch == base
	skip := func(*Record) error { return nil }
	for i, ws := range segs {
		if i > 0 && ws.epoch != segs[i-1].epoch+1 {
			reach = false // nothing continues across a hole in the chain
		}
		if ws.headerErr != nil {
			reach = false
			continue
		}
		apply := skip
		if reach {
			apply = rec.Apply
		}
		f, err := vfs.Open(fsys, ws.path)
		if err != nil {
			return err
		}
		_, err = replayWAL(f, ws.path, ws.validEnd, apply)
		f.Close()
		if errors.Is(err, cvd.ErrInMemoryModel) {
			return err
		}
		if err != nil {
			rep.addIssue(ScrubIssue{Kind: IssueCorruptWALRecord, Path: ws.path, Detail: err.Error(), Epochs: []uint64{ws.epoch}})
			reach = false
		}
		if ws.torn {
			reach = false // a torn sealed segment; the active one is last
		}
	}
	return nil
}

// refusalKind classes a checkpoint the recovery refuses.
func refusalKind(err error) IssueKind {
	switch {
	case errors.Is(err, cvd.ErrBadCatalog):
		return IssueBadCatalog
	case errors.Is(err, cvd.ErrBadVersions):
		return IssueBadVersions
	}
	return IssueUnopenable
}

func manifestEpochsOf(ms []*manifestState) []uint64 {
	out := make([]uint64, len(ms))
	for i, m := range ms {
		out[i] = m.epoch
	}
	return out
}

// editFile opens path for writing and applies edit to it: how a repair
// truncates a torn tail or writes a header, through the open's own code.
func editFile(fsys vfs.FS, path string, edit func(vfs.File) error) error {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	return edit(f)
}
