package durable

import (
	"fmt"
	"hash/maphash"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cvd"
	"repro/internal/parallel"
	"repro/internal/relstore"
	"repro/internal/vfs"
	"repro/internal/vgraph"
)

// Store manages one data directory: the chunk pack, the retained checkpoint
// manifests, and the epoch-named commit WAL segments. It is safe for
// concurrent use; appends coalesce through a leader/follower group-commit
// queue (see append) while checkpoints run in two halves — BeginCheckpoint
// seals the active WAL segment and starts a fresh one under the store mutex
// (cheap, done inside the engine's commit fence), then CompleteCheckpoint
// encodes, hashes, and writes the chunks outside the mutex while commits keep
// flowing into the new segment.
//
// Epoch discipline: the active WAL segment's epoch always equals the epoch
// the NEXT manifest will be written under. A manifest at epoch M covers
// exactly the state of every segment with epoch < M, so recovery loads the
// newest manifest and replays the segments at or after its epoch, in order.
// Segments older than the newest manifest are deleted as stale on open and
// after every completed checkpoint.
type Store struct {
	dir  string
	fsys vfs.FS // every byte of durable I/O goes through this

	// mu guards the WAL handle, epochs, end-of-log offset, poison state, the
	// sealed-segment list, and the manifest map, and serializes every WAL disk
	// operation (batch writes, sealing, replay).
	mu         sync.Mutex
	wal        vfs.File
	walPath    string
	lock       io.Closer // held advisory lock fencing other processes
	epoch      uint64    // active WAL segment epoch == next manifest epoch
	base       uint64    // newest durable manifest epoch (0 before the first checkpoint)
	walSize    int64     // offset just past the last durable record (header included)
	poisoned   error     // sticky fatal error: the log tail state is unknown
	sealed     []walSegment
	ckptActive bool
	manifests  map[uint64]*manifest
	retain     int
	gens       map[string]uint64 // per-CVD drop generation (see LogDrop)

	// gcMu guards the open group-commit batch. It is never held across disk
	// I/O: appenders join the pending batch under gcMu, then the batch leader
	// takes mu for the single write+fsync.
	gcMu    sync.Mutex
	pending *walBatch
	gc      GroupCommitConfig

	pack    *chunkPack
	workers int // checkpoint load and encode parallelism; <= 0 selects GOMAXPROCS

	// Process-local fingerprint cache: full-band content fingerprints from the
	// previous checkpoint mapped to the chunk hash they produced, so an
	// unchanged interior band skips encoding and hashing entirely. The maphash
	// seeds are fresh per open — the cache never persists, and a miss only
	// costs a re-encode. Accessed only inside a running checkpoint (serialized
	// by ckptActive).
	fpSeed1, fpSeed2 maphash.Seed
	fpCache          map[string]fpEntry
}

// fpEntry is one fingerprint-cache slot: the band's 128-bit content
// fingerprint and the chunk hash it encoded to last checkpoint.
type fpEntry struct {
	fp   [2]uint64
	hash ChunkHash
}

// walSegment names one on-disk WAL segment.
type walSegment struct {
	epoch uint64
	path  string
	end   int64 // where its records end, once recovery scanned it (sealed segments)
}

// DefaultGroupCommitBatch is the frames-per-fsync cap used when group commit
// is not configured explicitly.
const DefaultGroupCommitBatch = 128

// DefaultCheckpointRetention is how many checkpoint manifests a store keeps
// for point-in-time restore when not configured explicitly.
const DefaultCheckpointRetention = 8

// packCompactMinDead is the minimum dead-byte volume before retention GC
// rewrites the chunk pack.
const packCompactMinDead = 4 << 20

// GroupCommitConfig tunes the leader/follower commit batching of append.
type GroupCommitConfig struct {
	// MaxBatch caps how many records share one write+fsync. 1 disables
	// batching (every record syncs alone — the pre-group-commit behaviour);
	// <= 0 selects DefaultGroupCommitBatch.
	MaxBatch int
	// MaxDelay is how long a batch leader waits for followers once the disk
	// is free. 0 (the default) never waits: batching then arises naturally
	// from appends that queue up while the previous batch is fsyncing, adding
	// no latency to uncontended commits.
	MaxDelay time.Duration
}

func (c GroupCommitConfig) normalized() GroupCommitConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultGroupCommitBatch
	}
	if c.MaxDelay < 0 {
		c.MaxDelay = 0
	}
	return c
}

// SetGroupCommit configures commit batching. It may be called at any time;
// the configuration applies to batches formed after the call.
func (s *Store) SetGroupCommit(cfg GroupCommitConfig) {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	s.gc = cfg.normalized()
}

// SetRetention sets how many checkpoint manifests to keep (at least 1). It
// applies to the garbage collection after the next completed checkpoint.
func (s *Store) SetRetention(n int) {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retain = n
}

// walBatch is one group-commit unit: the frames of every record admitted to
// it, written and fsynced together by the batch leader.
type walBatch struct {
	frames [][]byte
	full   chan struct{} // closed when the batch reaches MaxBatch
	done   chan struct{} // closed by the leader once err is set
	err    error
}

// LockFile is the advisory lock file inside a data directory: Open takes an
// exclusive flock on it, so a second engine (same process or another one)
// opening the directory fails loudly instead of interleaving WAL appends
// with the first. The kernel releases the lock automatically when the
// holding process dies.
const LockFile = "lock.orph"

// lockDir acquires the directory's advisory lock, non-blocking.
func lockDir(fsys vfs.FS, dir string) (io.Closer, error) {
	lock, err := fsys.Lock(filepath.Join(dir, LockFile))
	if err != nil {
		if os.IsNotExist(err) || os.IsPermission(err) {
			return nil, err
		}
		return nil, fmt.Errorf("durable: data directory %s is locked by another engine: %w", dir, err)
	}
	return lock, nil
}

// Snapshot is the complete persisted state of an engine: the backing
// database's tables (serialized straight from their columnar lanes) plus the
// logical state of every CVD. Epoch pairs the snapshot with the WAL
// generation that continues it (see Store.Checkpoint).
type Snapshot struct {
	DBName string
	Epoch  uint64
	Tables []*relstore.Table
	CVDs   []*cvd.PersistentState
}

// OpenResult is what Open recovered from a data directory: the snapshot (nil
// when none was ever written) and recovery diagnostics. The WAL records that
// continue the snapshot are streamed separately through Store.ReplayWAL so a
// large log is never materialized whole.
type OpenResult struct {
	Snapshot *Snapshot
	// TornTail reports whether a partially-written WAL record (a crashed
	// append) was found and truncated away.
	TornTail bool
	// StaleWAL reports whether WAL segments older than the newest manifest
	// were discarded (their content is already folded into the checkpoint).
	StaleWAL bool
	// Load is how long reading, verifying and decoding the snapshot's chunks
	// took, and LoadWorkers how many goroutines did it (0: no snapshot).
	Load        time.Duration
	LoadWorkers int
}

// removeLeftoverTemps clears crash debris: temp files whose rename never
// happened.
func removeLeftoverTemps(fsys vfs.FS, dir string) {
	for _, pat := range []string{".manifest-*.tmp", ".chunks-*.tmp"} {
		matches, _ := vfs.Glob(fsys, dir, pat)
		for _, m := range matches {
			fsys.Remove(m)
		}
	}
}

// dirListing is one ReadDir of a data directory, sorted into the files
// recovery is rooted in.
type dirListing struct {
	manifests []uint64     // retained checkpoint epochs, ascending
	segments  []walSegment // WAL segments, epoch-ascending
	flat      bool         // a snapshot.orph is present
}

// listDataDir lists dir once.
func listDataDir(fsys vfs.FS, dir string) (dirListing, error) {
	var l dirListing
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return l, err
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		if epoch, ok := parseManifestName(name); ok {
			l.manifests = append(l.manifests, epoch)
		} else if epoch, ok := parseWALSegmentName(name); ok {
			l.segments = append(l.segments, walSegment{epoch: epoch, path: filepath.Join(dir, name)})
		} else if name == "snapshot.orph" {
			l.flat = true
		}
	}
	sort.Slice(l.manifests, func(i, j int) bool { return l.manifests[i] < l.manifests[j] })
	sort.Slice(l.segments, func(i, j int) bool { return l.segments[i].epoch < l.segments[j].epoch })
	return l, nil
}

// refuseFlatExport fails for a directory whose only recovery root is the
// single-file export builds before pack + manifest exports wrote: without
// this it would open as an empty store. Next to a manifest the file is
// ignored, as it always was.
func (l dirListing) refuseFlatExport(dir string) error {
	if l.flat && len(l.manifests) == 0 {
		return fmt.Errorf("durable: %s holds a flat snapshot.orph export; this build reads pack + manifest only — re-export with a build that wrote it", dir)
	}
	return nil
}

// Open opens (creating if needed) a data directory and recovers it: the
// newest manifest's chunks are assembled into the snapshot, stale WAL
// segments are deleted, and the surviving segments' framing is validated — a
// torn tail from a crashed append is truncated so the active segment ends on
// a record boundary. Call ReplayWAL next to stream the surviving records; the
// returned store is ready for appends. The snapshot loads, and checkpoints
// encode, on GOMAXPROCS goroutines.
func Open(dir string) (*Store, *OpenResult, error) {
	return OpenFS(dir, vfs.OS(), 0)
}

// OpenFS is Open on an explicit filesystem — the production entry point uses
// vfs.OS(); fault-injection tests substitute a vfs.FaultFS so every byte of
// durable I/O is interceptable — with the snapshot loaded, and checkpoints
// encoded, on up to workers goroutines (<= 0 selects GOMAXPROCS).
func OpenFS(dir string, fsys vfs.FS, workers int) (*Store, *OpenResult, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	if _, err := fsys.Stat(filepath.Join(dir, WALFile)); err == nil {
		return nil, nil, fmt.Errorf("durable: %s holds a format v1 WAL (%s); this build reads format v2 only — re-export from a v1 build and load the export", dir, WALFile)
	}
	lock, err := lockDir(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	s := &Store{
		dir:       dir,
		fsys:      fsys,
		lock:      lock,
		gc:        GroupCommitConfig{}.normalized(),
		manifests: make(map[uint64]*manifest),
		retain:    DefaultCheckpointRetention,
		gens:      make(map[string]uint64),
		workers:   workers,
		fpSeed1:   maphash.MakeSeed(),
		fpSeed2:   maphash.MakeSeed(),
		fpCache:   make(map[string]fpEntry),
	}
	res := &OpenResult{}
	fail := func(err error) (*Store, *OpenResult, error) {
		if s.wal != nil {
			s.wal.Close()
		}
		if s.pack != nil {
			s.pack.close()
		}
		lock.Close()
		return nil, nil, err
	}
	removeLeftoverTemps(fsys, dir)
	listing, err := listDataDir(fsys, dir)
	if err != nil {
		return fail(err)
	}
	if err := listing.refuseFlatExport(dir); err != nil {
		return fail(err)
	}
	epochs, segs := listing.manifests, listing.segments

	pack, scan, err := openPack(fsys, filepath.Join(dir, PackFile), true, nil)
	if err != nil {
		return fail(err)
	}
	s.pack = pack
	if scan.bad != nil {
		return fail(scan.bad)
	}

	for _, e := range epochs {
		m, err := readManifestFile(fsys, filepath.Join(dir, ManifestFileName(e)))
		if err != nil {
			return fail(err)
		}
		if m.epoch != e {
			return fail(fmt.Errorf("durable: manifest %s carries epoch %d", ManifestFileName(e), m.epoch))
		}
		s.manifests[e] = m
	}
	if len(epochs) > 0 {
		s.base = epochs[len(epochs)-1]
		m := s.manifests[s.base]
		start := time.Now()
		snap, used, err := loadSnapshotFromManifest(m, pack.get, workers)
		if err != nil {
			return fail(err)
		}
		res.Snapshot, res.Load, res.LoadWorkers = snap, time.Since(start), used
	}
	// A torn pack tail is routine crash debris, cut only now that the newest
	// checkpoint has loaded from the frames before it (see pack.go).
	if err := pack.repair(scan); err != nil {
		return fail(err)
	}

	var keep []walSegment
	for _, seg := range segs {
		if seg.epoch < s.base {
			// Older than the newest manifest: everything in it is already
			// folded into the checkpoint (a crash beat the post-checkpoint
			// cleanup to the delete).
			res.StaleWAL = true
			if err := fsys.Remove(seg.path); err != nil {
				return fail(err)
			}
			continue
		}
		keep = append(keep, seg)
	}
	if len(keep) == 0 {
		seg := walSegment{epoch: s.base, path: filepath.Join(dir, WALSegmentFileName(s.base))}
		f, err := fsys.OpenFile(seg.path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return fail(err)
		}
		s.wal, s.walPath, s.epoch, s.walSize = f, seg.path, seg.epoch, walHeaderSize
		if err := writeWALHeader(f, seg.epoch); err != nil {
			return fail(err)
		}
		return s, res, nil
	}
	if _, err := walChainHole(s.base, keep); err != nil {
		return fail(fmt.Errorf("durable: %s: %w", dir, err))
	}
	for i, seg := range keep {
		active := i == len(keep)-1
		ws, err := scanWALSegment(fsys, seg, active)
		if err != nil {
			return fail(err)
		}
		if ws.headerErr != nil {
			return fail(ws.headerErr)
		}
		if !active {
			// Sealed: closed by a completed BeginCheckpoint after every
			// append in it returned durably, so a torn tail here is mid-log
			// corruption, not crash debris.
			if ws.torn {
				return fail(fmt.Errorf("durable: sealed WAL segment %s has a torn tail — refusing to drop committed history", seg.path))
			}
			seg.end = ws.validEnd
			s.sealed = append(s.sealed, seg)
			continue
		}
		f, err := fsys.OpenFile(seg.path, os.O_RDWR, 0o644)
		if err != nil {
			return fail(err)
		}
		s.wal, s.walPath, s.epoch, s.walSize = f, seg.path, seg.epoch, ws.validEnd
		switch {
		case ws.short:
			// Crash inside BeginCheckpoint after creating the new segment
			// but before its header landed: finish the header now.
			err = writeWALHeader(f, seg.epoch)
		case ws.torn:
			err = truncateTail(f, ws.validEnd)
			res.TornTail = true
		}
		if err != nil {
			return fail(err)
		}
	}
	return s, res, nil
}

// walChainHole returns the first hole in chain, the WAL segments from the
// checkpoint at base on, ascending: the segment for base itself missing, or
// two segments whose epochs are not consecutive. from indexes the first
// segment the hole strands — its records continue ones that are gone. The
// open fails with err; Scrub reports it and, repairing, quarantines the
// stranded segments.
func walChainHole(base uint64, chain []walSegment) (from int, err error) {
	if len(chain) > 0 && chain[0].epoch != base {
		return 0, fmt.Errorf("WAL segment for epoch %d is missing (oldest present is %d)", base, chain[0].epoch)
	}
	for i := 1; i < len(chain); i++ {
		if chain[i].epoch != chain[i-1].epoch+1 {
			return i, fmt.Errorf("WAL segments %d and %d are not contiguous", chain[i-1].epoch, chain[i].epoch)
		}
	}
	return -1, nil
}

// ReplayWAL streams every record of the (already recovered) WAL segments to
// apply in append order — sealed segments first, then the active one — one
// decoded record at a time. Call it once, right after Open and before any
// appends.
func (s *Store) ReplayWAL(apply func(*Record) error) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return 0, s.closedErr()
	}
	total := 0
	for _, seg := range s.sealed {
		f, err := vfs.Open(s.fsys, seg.path)
		if err != nil {
			return total, err
		}
		n, err := replayWAL(f, seg.path, seg.end, apply)
		f.Close()
		total += n
		if err != nil {
			return total, err
		}
	}
	n, err := replayWAL(s.wal, s.walPath, s.walSize, apply)
	return total + n, err
}

// Dir returns the data directory path.
func (s *Store) Dir() string { return s.dir }

// Epoch returns the active WAL segment's epoch (== the epoch the next
// completed checkpoint will be written under).
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// RetainedEpochs returns the epochs a point-in-time restore can load,
// ascending.
func (s *Store) RetainedEpochs() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, 0, len(s.manifests))
	for e := range s.manifests {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Close closes the WAL segment, the chunk pack, and releases the directory
// lock. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.wal != nil {
		err = s.wal.Close()
		s.wal = nil
	}
	if s.pack != nil {
		if perr := s.pack.close(); err == nil {
			err = perr
		}
	}
	if s.lock != nil {
		s.lock.Close() // closing drops the flock
		s.lock = nil
	}
	return err
}

// closedErr distinguishes a poisoned store (failure path disabled it) from a
// plainly closed one; callers hold s.mu.
func (s *Store) closedErr() error {
	if s.poisoned != nil {
		return s.poisoned
	}
	return fmt.Errorf("durable: store %s is closed", s.dir)
}

// append frames one record and makes it durable through the group-commit
// queue: the first appender to find no open batch becomes the leader — it
// waits for the disk to be free (and optionally MaxDelay for followers),
// seals the batch, and performs one write+fsync for every record in it.
// Appenders that arrive while a batch is open join it and wait for the
// leader's verdict. Uncontended appends still sync immediately: with
// MaxDelay 0 the leader never waits for company, so batching only arises
// from genuine concurrency.
func (s *Store) append(rec *Record) error {
	frame, err := encodeFrame(rec)
	if err != nil {
		return err
	}
	s.gcMu.Lock()
	cfg := s.gc
	if b := s.pending; b != nil {
		// Follower: join the open batch and wait for its leader.
		b.frames = append(b.frames, frame)
		if len(b.frames) >= cfg.MaxBatch {
			// Full: stop admitting followers and wake a delaying leader.
			s.pending = nil
			close(b.full)
		}
		s.gcMu.Unlock()
		<-b.done
		return b.err
	}
	b := &walBatch{frames: [][]byte{frame}, full: make(chan struct{}), done: make(chan struct{})}
	if cfg.MaxBatch > 1 {
		s.pending = b
	}
	s.gcMu.Unlock()

	// Leader: wait for the disk (the previous batch's fsync, a segment seal,
	// or a replay) — followers accumulate into b meanwhile.
	s.mu.Lock()
	if cfg.MaxDelay > 0 && cfg.MaxBatch > 1 {
		t := time.NewTimer(cfg.MaxDelay)
		select {
		case <-b.full:
		case <-t.C:
		}
		t.Stop()
	}
	// Seal the batch: after this no appender can join it.
	s.gcMu.Lock()
	if s.pending == b {
		s.pending = nil
	}
	frames := b.frames
	s.gcMu.Unlock()

	err = s.writeFramesLocked(frames)
	s.mu.Unlock()
	b.err = err
	close(b.done)
	return err
}

// writeFramesLocked appends the sealed batch's frames with one write and one
// fsync; the caller holds s.mu. On any write or sync failure the log tail
// past the pre-append offset is garbage: it is truncated back (and the
// truncation fsynced) so the next append — and recovery — continue from the
// last durable record instead of burying later commits behind torn bytes. If
// the truncation itself fails the tail state is unknown and the store is
// poisoned: every later operation fails until the directory is reopened.
func (s *Store) writeFramesLocked(frames [][]byte) error {
	if s.wal == nil {
		return s.closedErr()
	}
	var buf []byte
	if len(frames) == 1 {
		buf = frames[0]
	} else {
		total := 0
		for _, f := range frames {
			total += len(f)
		}
		buf = make([]byte, 0, total)
		for _, f := range frames {
			buf = append(buf, f...)
		}
	}
	start := s.walSize
	_, err := s.wal.WriteAt(buf, start)
	if err == nil {
		err = s.wal.Sync()
	}
	if err == nil {
		s.walSize = start + int64(len(buf))
		return nil
	}
	// Failure path: remove whatever landed past the last durable record.
	if terr := truncateTail(s.wal, start); terr != nil {
		s.poisoned = fmt.Errorf("durable: WAL append to %s failed (%v) and truncating the torn tail failed too (%v); store disabled until reopen", s.dir, err, terr)
		s.wal.Close()
		s.wal = nil
		return s.poisoned
	}
	return fmt.Errorf("durable: WAL append to %s failed; log truncated back to the last durable record: %w", s.dir, err)
}

// truncateTail cuts f back to end and makes the cut durable: how recovery
// drops a torn tail, and how a failed append takes its bytes back.
func truncateTail(f vfs.File, end int64) error {
	if err := f.Truncate(end); err != nil {
		return err
	}
	return f.Sync()
}

// LogInit journals the creation of a split-by-rlist CVD: its first version's
// delta, as cvd.CVD.InitDelta returns it.
func (s *Store) LogInit(name string, versions []vgraph.VersionID, delta []relstore.Row, deltaSchema relstore.Schema, msg, author string, at time.Time) error {
	return s.append(&Record{Op: OpInit, CVD: name, Versions: versions, Delta: delta, Schema: deltaSchema, Message: msg, Author: author, At: at})
}

// LogDrop journals dropping a CVD. It also bumps the name's drop generation:
// record-set fingerprint-cache keys include it, so a CVD re-created under a
// dropped name can never structurally alias the old one's cached chunks.
func (s *Store) LogDrop(name string) error {
	s.mu.Lock()
	s.gens[name]++
	s.mu.Unlock()
	return s.append(&Record{Op: OpDrop, CVD: name})
}

// LogCommit implements cvd.Journal: it journals one committed version as the
// delta it is handed.
func (s *Store) LogCommit(cvdName string, versions []vgraph.VersionID, delta []relstore.Row, deltaSchema relstore.Schema, msg, author string, at time.Time) error {
	return s.append(&Record{Op: OpCommit, CVD: cvdName, Versions: versions, Delta: delta, Schema: deltaSchema, Message: msg, Author: author, At: at})
}

// ---- checkpointing -----------------------------------------------------------

// CheckpointJob is the handle BeginCheckpoint returns: the epoch the
// checkpoint will commit under plus state captured inside the commit fence.
type CheckpointJob struct {
	epoch uint64
	start time.Time
	gens  map[string]uint64
}

// Epoch returns the epoch the checkpoint will be written under.
func (j *CheckpointJob) Epoch() uint64 { return j.epoch }

// CheckpointStats reports what one completed checkpoint cost.
type CheckpointStats struct {
	Epoch         uint64
	Chunks        int   // chunk references in the manifest
	ChunksWritten int   // chunks actually appended to the pack (not reused)
	ChunkBytes    int64 // payload bytes of every referenced chunk
	BytesWritten  int64 // bytes appended to disk: new pack frames + manifest
	ManifestBytes int64
	Duration      time.Duration
	// Referenced splits ChunkBytes by chunk kind; Written does the same for
	// the payloads of the chunks appended to the pack.
	Referenced, Written KindBytes
}

// KindBytes splits chunk payload bytes by the kind of chunk that holds them.
type KindBytes struct {
	ColumnBands int64 `json:"column_bands"`
	CVDHeads    int64 `json:"cvd_heads"`
	RecsetRuns  int64 `json:"recset_runs"`
}

// add counts n payload bytes of a chunk of kind k.
func (b *KindBytes) add(k uint8, n int64) {
	switch k {
	case chunkColBand:
		b.ColumnBands += n
	case chunkCVDHead:
		b.CVDHeads += n
	case chunkRecsetRun:
		b.RecsetRuns += n
	}
}

// Total is the payload bytes of every kind.
func (b KindBytes) Total() int64 { return b.ColumnBands + b.CVDHeads + b.RecsetRuns }

func (b KindBytes) String() string {
	return fmt.Sprintf("%d B column bands, %d B CVD heads, %d B record-set runs", b.ColumnBands, b.CVDHeads, b.RecsetRuns)
}

// BeginCheckpoint seals the active WAL segment and opens the next one, so
// commits logged after it are outside the checkpoint being taken. It is
// cheap (one file create + header write) and must be called while the caller
// holds the engine state fixed — the snapshot later passed to
// CompleteCheckpoint must reflect exactly the operations logged before this
// call.
func (s *Store) BeginCheckpoint() (*CheckpointJob, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil, s.closedErr()
	}
	if s.ckptActive {
		return nil, fmt.Errorf("durable: a checkpoint of %s is already in progress", s.dir)
	}
	newEpoch := s.epoch + 1
	newPath := filepath.Join(s.dir, WALSegmentFileName(newEpoch))
	f, err := s.fsys.OpenFile(newPath, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if err := writeWALHeader(f, newEpoch); err != nil {
		f.Close()
		s.fsys.Remove(newPath)
		return nil, err
	}
	// Seal the old segment. Every record in it is already fsynced (append's
	// commit boundary), so a close error cannot lose data; the file stays
	// readable by path for replay either way.
	s.wal.Close()
	s.sealed = append(s.sealed, walSegment{epoch: s.epoch, path: s.walPath, end: s.walSize})
	s.wal, s.walPath, s.epoch, s.walSize = f, newPath, newEpoch, walHeaderSize
	s.ckptActive = true
	job := &CheckpointJob{epoch: newEpoch, start: time.Now(), gens: make(map[string]uint64, len(s.gens))}
	for k, v := range s.gens {
		job.gens[k] = v
	}
	return job, nil
}

// CompleteCheckpoint encodes the snapshot into content-addressed chunks,
// writes the changed ones to the pack, fsyncs it, and commits the checkpoint
// by renaming in the manifest — all without holding the store mutex, so
// commits keep flowing into the segment BeginCheckpoint opened. On success
// the covered WAL segments are deleted and retention GC prunes old manifests
// and unreferenced chunks. On failure nothing is committed and the store
// stays fully usable: commits remain durable in the active segment, and the
// next checkpoint folds them in.
func (s *Store) CompleteCheckpoint(job *CheckpointJob, snap *Snapshot) (CheckpointStats, error) {
	var stats CheckpointStats
	if job == nil {
		return stats, fmt.Errorf("durable: CompleteCheckpoint without a BeginCheckpoint job")
	}
	defer func() {
		s.mu.Lock()
		s.ckptActive = false
		s.mu.Unlock()
	}()
	snap.Epoch = job.epoch
	m, newCache, stats, err := s.encodeSnapshotChunks(job, snap)
	if err != nil {
		return stats, fmt.Errorf("durable: checkpoint %d of %s: %w", job.epoch, s.dir, err)
	}
	if err := s.pack.sync(); err != nil {
		return stats, err
	}
	mb, err := writeManifestFile(s.fsys, s.dir, m)
	if err != nil {
		return stats, err
	}
	stats.ManifestBytes = mb
	stats.BytesWritten += mb

	s.mu.Lock()
	s.fpCache = newCache
	s.base = job.epoch
	s.manifests[job.epoch] = m
	var keep []walSegment
	for _, seg := range s.sealed {
		if seg.epoch < job.epoch {
			s.fsys.Remove(seg.path)
		} else {
			keep = append(keep, seg)
		}
	}
	s.sealed = keep
	retain := s.retain
	s.mu.Unlock()

	s.collectGarbage(retain)
	stats.Duration = time.Since(job.start)
	return stats, nil
}

// Checkpoint is the synchronous form: seal, encode, and commit in one call.
// The caller must hold the engine state fixed for the full duration (the
// non-blocking path is BeginCheckpoint under the fence + CompleteCheckpoint
// outside it).
func (s *Store) Checkpoint(snap *Snapshot) (CheckpointStats, error) {
	job, err := s.BeginCheckpoint()
	if err != nil {
		return CheckpointStats{}, err
	}
	return s.CompleteCheckpoint(job, snap)
}

// encodeSnapshotChunks chunks the snapshot, writing changed chunks to the
// pack, and returns the manifest plus the next fingerprint cache. Table
// columns encode in parallel; full interior bands whose content fingerprint
// matches the previous checkpoint skip encoding entirely and reuse their
// chunk hash. Record-set runs exploit a stronger invariant — within one CVD
// lifetime (see LogDrop's generation) they are strictly append-only, so a full
// run at the same index is immutable and only needs its boundary guard
// checked.
func (s *Store) encodeSnapshotChunks(job *CheckpointJob, snap *Snapshot) (*manifest, map[string]fpEntry, CheckpointStats, error) {
	stats := CheckpointStats{Epoch: snap.Epoch}
	m := &manifest{dbName: snap.DBName, epoch: snap.Epoch}
	newCache := make(map[string]fpEntry)
	var cacheMu sync.Mutex
	var chunks, written atomic.Int64
	// Payload bytes referenced and written, by chunk kind.
	var referenced, wrote [chunkRecsetRun + 1]atomic.Int64

	// emit writes one encoded payload to the pack (deduplicated by content).
	emit := func(payload []byte) (ChunkHash, error) {
		h := hashChunk(payload)
		fresh, err := s.pack.put(h, payload)
		if err != nil {
			return h, err
		}
		chunks.Add(1)
		referenced[payload[0]].Add(int64(len(payload)))
		if fresh {
			written.Add(1)
			wrote[payload[0]].Add(int64(len(payload)))
		}
		return h, nil
	}
	// reuse accounts for a chunk of kind k served from the fingerprint cache.
	reuse := func(h ChunkHash, k uint8) {
		chunks.Add(1)
		if n, ok := s.pack.sizeOf(h); ok {
			referenced[k].Add(int64(n))
		}
	}

	type unit struct{ ti, ci int }
	var units []unit
	m.tables = make([]manifestTable, len(snap.Tables))
	for ti, t := range snap.Tables {
		meta := metaForTable(t)
		mt := manifestTable{meta: meta, cols: make([][]ChunkHash, len(meta.schema.Columns))}
		nb := numBands(meta.nrows, meta.bandRows)
		for ci := range mt.cols {
			mt.cols[ci] = make([]ChunkHash, nb)
			units = append(units, unit{ti, ci})
		}
		m.tables[ti] = mt
	}
	err := parallel.ForEachErr(s.workers, len(units), func(i int) error {
		u := units[i]
		mt := &m.tables[u.ti]
		meta := &mt.meta
		lanes := snap.Tables[u.ti].ColumnLanes(u.ci)
		var e enc
		nb := numBands(meta.nrows, meta.bandRows)
		for b := 0; b < nb; b++ {
			lo, hi := bandSpan(b, meta.bandRows, meta.nrows)
			if hi-lo == meta.bandRows {
				key := fmt.Sprintf("b|%s|%d|%d", meta.name, u.ci, b)
				fp := lanes.BandFingerprint(s.fpSeed1, s.fpSeed2, lo, hi)
				cacheMu.Lock()
				old, ok := s.fpCache[key]
				cacheMu.Unlock()
				if ok && old.fp == fp && s.pack.has(old.hash) {
					mt.cols[u.ci][b] = old.hash
					reuse(old.hash, chunkColBand)
					cacheMu.Lock()
					newCache[key] = old
					cacheMu.Unlock()
					continue
				}
				e.b = e.b[:0]
				encodeColBand(&e, lanes, lo, hi, false)
				h, err := emit(e.b)
				if err != nil {
					return err
				}
				mt.cols[u.ci][b] = h
				cacheMu.Lock()
				newCache[key] = fpEntry{fp: fp, hash: h}
				cacheMu.Unlock()
				continue
			}
			// Tail band: its content moves on every append, always re-encode.
			e.b = e.b[:0]
			encodeColBand(&e, lanes, lo, hi, false)
			h, err := emit(e.b)
			if err != nil {
				return err
			}
			mt.cols[u.ci][b] = h
		}
		return nil
	})
	if err != nil {
		return nil, nil, stats, err
	}

	// CVD sections run serially: heads are small and always re-encoded (the
	// pack deduplicates them by content), and the append-only record-set runs
	// are mostly cache hits.
	var e enc
	for _, st := range snap.CVDs {
		gen := job.gens[st.Name]
		layout := layoutForCVD(st)
		mc := manifestCVD{layout: layout}
		e.b = e.b[:0]
		encodeCVDHead(&e, st)
		h, err := emit(e.b)
		if err != nil {
			return nil, nil, stats, err
		}
		mc.head = h

		nr := numBands(layout.sets, layout.runLen)
		mc.runs = make([]ChunkHash, nr)
		for r := 0; r < nr; r++ {
			lo, hi := bandSpan(r, layout.runLen, layout.sets)
			var fp [2]uint64
			full := hi-lo == layout.runLen
			var key string
			if full {
				key = fmt.Sprintf("r|%s|%d|%d", st.Name, gen, r)
				var sum int64
				for _, vs := range st.RecordSets[lo:hi] {
					sum += vs.Set.Len()
				}
				fp = [2]uint64{
					uint64(st.RecordSets[lo].Version)<<32 | uint64(st.RecordSets[hi-1].Version)&0xffffffff,
					uint64(sum),
				}
				if old, ok := s.fpCache[key]; ok && old.fp == fp && s.pack.has(old.hash) {
					mc.runs[r] = old.hash
					reuse(old.hash, chunkRecsetRun)
					newCache[key] = old
					continue
				}
			}
			e.b = e.b[:0]
			encodeRecsetRun(&e, st, lo, hi)
			if mc.runs[r], err = emit(e.b); err != nil {
				return nil, nil, stats, err
			}
			if full {
				newCache[key] = fpEntry{fp: fp, hash: mc.runs[r]}
			}
		}
		m.cvds = append(m.cvds, mc)
	}

	for k := range referenced {
		stats.Referenced.add(uint8(k), referenced[k].Load())
		stats.Written.add(uint8(k), wrote[k].Load())
	}
	stats.Chunks = int(chunks.Load())
	stats.ChunksWritten = int(written.Load())
	stats.ChunkBytes = stats.Referenced.Total()
	stats.BytesWritten = stats.Written.Total() + packFrameOverhead*int64(stats.ChunksWritten)
	return m, newCache, stats, nil
}

// collectGarbage prunes manifests beyond the retention window, then rewrites
// the chunk pack when enough dead bytes have accumulated. Runs with
// ckptActive still held, so no concurrent checkpoint appends chunks while
// the pack compacts.
func (s *Store) collectGarbage(retain int) {
	s.mu.Lock()
	epochs := make([]uint64, 0, len(s.manifests))
	for e := range s.manifests {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	removed := false
	for len(epochs) > retain {
		e := epochs[0]
		epochs = epochs[1:]
		delete(s.manifests, e)
		s.fsys.Remove(filepath.Join(s.dir, ManifestFileName(e)))
		removed = true
	}
	live := make(map[ChunkHash]struct{})
	for _, m := range s.manifests {
		m.chunkRefs(func(h ChunkHash, _ uint8) { live[h] = struct{}{} })
	}
	s.mu.Unlock()
	if removed {
		// Make the deletions durable before dropping the chunks they pinned:
		// a resurrected manifest must never reference compacted-away chunks.
		s.fsys.SyncDir(s.dir)
	}
	total, liveBytes := s.pack.bytes(live)
	if dead := total - liveBytes; dead > packCompactMinDead && dead > liveBytes {
		// Best-effort: a failed compaction leaves the old pack fully intact.
		s.pack.compact(live)
	}
}

// LoadEpoch assembles the snapshot of one retained checkpoint epoch — the
// point-in-time restore read path. It does not disturb the live state.
func (s *Store) LoadEpoch(epoch uint64) (*Snapshot, error) {
	s.mu.Lock()
	m := s.manifests[epoch]
	s.mu.Unlock()
	if m == nil {
		return nil, fmt.Errorf("durable: epoch %d is not retained in %s (see RetainedEpochs)", epoch, s.dir)
	}
	snap, _, err := loadSnapshotFromManifest(m, s.pack.get, s.workers)
	return snap, err
}

// ---- package-level directory helpers ----------------------------------------

// ListEpochs returns the retained checkpoint epochs of a data directory,
// ascending, without opening it as a store.
func ListEpochs(dir string) ([]uint64, error) {
	l, err := listDataDir(vfs.OS(), dir)
	return l.manifests, err
}

// OpenAtEpoch loads the snapshot of one retained epoch from a closed data
// directory (the directory lock is held only for the read) on up to workers
// goroutines (<= 0 selects GOMAXPROCS). It is read-only: the pack is read as
// the open reads it, and nothing is written.
func OpenAtEpoch(dir string, epoch uint64, workers int) (*Snapshot, error) {
	fsys := vfs.OS()
	lock, err := lockDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	defer lock.Close()
	listing, err := listDataDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	if err := listing.refuseFlatExport(dir); err != nil {
		return nil, err
	}
	m, err := readManifestFile(fsys, filepath.Join(dir, ManifestFileName(epoch)))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("durable: epoch %d is not retained in %s", epoch, dir)
		}
		return nil, err
	}
	pack, scan, err := openPack(fsys, filepath.Join(dir, PackFile), false, nil)
	if err != nil {
		return nil, err
	}
	defer pack.close()
	if scan.bad != nil {
		return nil, scan.bad
	}
	snap, _, err := loadSnapshotFromManifest(m, pack.get, workers)
	return snap, err
}

// Export writes snap into dir (created if needed) as a data directory of its
// own holding one checkpoint — taken by the ordinary checkpoint path of a
// store opened on dir, so an export is read back by the only reader there is.
// All I/O goes through fsys. A directory that already holds checkpoint or WAL
// state is refused: checkpointing an unrelated snapshot over it would orphan
// that history. Looking before opening matters twice over — Open repairs what
// it finds, and the directory of a running engine would otherwise fail on the
// lock with a message about another engine.
func Export(dir string, fsys vfs.FS, snap *Snapshot) error {
	if l, err := listDataDir(fsys, dir); err == nil {
		what := ""
		if len(l.manifests) > 0 {
			what = "a checkpoint manifest"
		} else if len(l.segments) > 0 {
			what = "a WAL segment"
		}
		if what != "" {
			return fmt.Errorf("durable: %s is a live data directory (has %s); export into a fresh directory", dir, what)
		}
	}
	s, _, err := OpenFS(dir, fsys, 0)
	if err != nil {
		return err
	}
	_, err = s.Checkpoint(snap)
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return err
}
