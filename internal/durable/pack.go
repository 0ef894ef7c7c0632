package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"repro/internal/vfs"
)

// The chunk pack is the append-only chunk store of a data directory:
//
//	header: magic "ORPHPAK1", uint32 format version
//	frame:  16-byte chunk hash, uint32 payload length, uint32 CRC32(payload), payload
//
// Chunks are written at most once (append-if-absent keyed by content hash)
// and never rewritten in place; retention GC rewrites the pack to a temp
// file and renames it over when enough dead bytes accumulate (compact).
//
// One walk reads a pack (openPack, for the open, point-in-time restore and
// Scrub alike) and sorts its frames three ways. A frame whose CRC holds is
// valid and indexed. A frame whose CRC fails, whose length fits and that more
// bytes follow is corrupt: it stays in place, unindexed, and the frames after
// it are read on. A short frame header, a length past end of file, or a CRC
// failure in the last frame starts a torn tail — a crashed append. The walk
// writes nothing; only the open cuts a torn tail (repair), and only once the
// newest checkpoint has loaded from the frames before it — safe because a
// chunk becomes reachable only once a manifest referencing it is durably
// renamed in, and the pack is fsynced before the manifest. A failed append
// takes its bytes back (put), so a corrupt frame mid-file is never the debris
// of one.

// PackFile is the chunk pack's file name inside a data directory.
const PackFile = "chunks.orph"

const packHeaderSize = 8 + 4

// packFrameOverhead is the per-chunk framing cost (hash + length + CRC).
const packFrameOverhead = 16 + 4 + 4

// chunkLoc locates one chunk's payload inside the pack.
type chunkLoc struct {
	off int64 // payload offset (past the frame header)
	n   uint32
}

// chunkPack is the open pack: file handle plus the hash → location index.
// All methods are safe for concurrent use. Reads (get) share mu, so a load's
// workers read and verify chunks at once; put, compact, repair and close
// hold it alone — compact swaps f and idx.
type chunkPack struct {
	mu       sync.RWMutex
	fsys     vfs.FS
	path     string
	f        vfs.File // nil: closed, or no pack file yet
	idx      map[ChunkHash]chunkLoc
	size     int64 // next append offset: the end of the frames before any torn tail
	poisoned error // sticky: a failed append whose bytes could not be taken back
}

// packScan is what the walk found besides the valid frames.
type packScan struct {
	size    int64                  // file size (0: no pack file)
	short   bool                   // a pack file shorter than its header
	bad     error                  // non-nil: the header is not this format's
	tornAt  int64                  // offset where a torn tail starts, -1 if none
	corrupt map[ChunkHash]chunkLoc // corrupt frames of hashes no valid frame holds
	frames  int                    // frames read whole
}

// openPack opens the pack at path — read-write for the open, which appends to
// it, read-only otherwise — and walks its frames into the index. It writes
// nothing; a missing pack is an empty one. verify, when non-nil, is checked
// on top of a frame's CRC (Scrub's content hash); a frame failing it is
// corrupt.
func openPack(fsys vfs.FS, path string, writable bool, verify func(ChunkHash, []byte) bool) (*chunkPack, *packScan, error) {
	var f vfs.File
	var err error
	if writable {
		f, err = fsys.OpenFile(path, os.O_RDWR, 0o644)
	} else {
		f, err = vfs.Open(fsys, path)
	}
	switch {
	case os.IsNotExist(err):
		f = nil
	case err != nil:
		return nil, nil, err
	}
	p := &chunkPack{fsys: fsys, path: path, f: f, idx: make(map[ChunkHash]chunkLoc)}
	sc, err := p.walk(verify)
	if err != nil {
		p.close()
		return nil, nil, err
	}
	p.size = packHeaderSize
	switch {
	case sc.tornAt >= 0:
		p.size = sc.tornAt
	case sc.size > packHeaderSize:
		p.size = sc.size
	}
	return p, sc, nil
}

// walk reads the frames sequentially, checking each CRC (and verify), into
// p.idx; see the package comment above for how a frame is classified.
func (p *chunkPack) walk(verify func(ChunkHash, []byte) bool) (*packScan, error) {
	sc := &packScan{tornAt: -1, corrupt: make(map[ChunkHash]chunkLoc)}
	if p.f == nil {
		return sc, nil
	}
	info, err := p.f.Stat()
	if err != nil {
		return nil, err
	}
	sc.size = info.Size()
	if sc.size < packHeaderSize {
		sc.short = true
		return sc, nil
	}
	var hdr [packHeaderSize]byte
	if _, err := p.f.ReadAt(hdr[:], 0); err != nil {
		return nil, err
	}
	if string(hdr[:8]) != packMagic {
		sc.bad = fmt.Errorf("durable: %s is not a chunk pack (magic %q)", p.path, hdr[:8])
		return sc, nil
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != formatVersion {
		sc.bad = fmt.Errorf("durable: unsupported chunk pack version %d (want %d)", v, formatVersion)
		return sc, nil
	}
	frames := sc.size - packHeaderSize
	br := bufio.NewReaderSize(io.NewSectionReader(p.f, packHeaderSize, frames), int(min(frames, 1<<20)))
	var frame [packFrameOverhead]byte
	var payload []byte
	for off := int64(packHeaderSize); off < sc.size; {
		if sc.size-off < packFrameOverhead {
			sc.tornAt = off
			break
		}
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			return nil, err
		}
		var h ChunkHash
		copy(h[:], frame[:16])
		n := binary.LittleEndian.Uint32(frame[16:20])
		if int64(n) > sc.size-off-packFrameOverhead {
			sc.tornAt = off
			break
		}
		if int(n) > cap(payload) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, err
		}
		sc.frames++
		loc := chunkLoc{off: off + packFrameOverhead, n: n}
		off = loc.off + int64(n)
		ok := crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(frame[20:24])
		if !ok && off == sc.size {
			sc.tornAt = loc.off - packFrameOverhead
			break
		}
		if ok && verify != nil {
			ok = verify(h, payload)
		}
		if ok {
			p.idx[h] = loc
			delete(sc.corrupt, h)
		} else if _, valid := p.idx[h]; !valid {
			sc.corrupt[h] = loc
		}
	}
	return sc, nil
}

// repair gives the file the shape the walk found it should have: a pack
// shorter than its header (or none at all) gets the header, and a torn tail
// is cut. Only the open repairs, once the newest checkpoint has loaded.
func (p *chunkPack) repair(sc *packScan) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.f == nil {
		f, err := p.fsys.OpenFile(p.path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		p.f = f
	}
	switch {
	case sc.size < packHeaderSize:
		// A crash while creating the pack: no chunk in it was ever written.
		return writePackHeader(p.f)
	case sc.tornAt >= 0:
		return truncateTail(p.f, sc.tornAt)
	}
	return nil
}

// packHeader is the header every pack starts with.
func packHeader() []byte {
	hdr := make([]byte, packHeaderSize)
	copy(hdr[:8], packMagic)
	binary.LittleEndian.PutUint32(hdr[8:], formatVersion)
	return hdr
}

// writePackHeader makes f an empty pack: the header alone, synced.
func writePackHeader(f vfs.File) error {
	if err := f.Truncate(0); err != nil {
		return err
	}
	if _, err := f.WriteAt(packHeader(), 0); err != nil {
		return err
	}
	return f.Sync()
}

// appendFrame appends payload's frame to dst: the one frame encoder.
func appendFrame(dst []byte, h ChunkHash, payload []byte) []byte {
	dst = append(dst, h[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// has reports whether the chunk is present.
func (p *chunkPack) has(h ChunkHash) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, ok := p.idx[h]
	return ok
}

// put appends the chunk unless it is already present. It returns whether the
// chunk was written (false = deduplicated). Durability is the caller's:
// CompleteCheckpoint syncs the pack once before writing the manifest. A
// failed write is taken back — the pack is cut to where the frame began — so
// no leftover of it sits in front of a later frame; if the cut fails too, the
// pack is poisoned and takes no write until the directory is reopened.
func (p *chunkPack) put(h ChunkHash, payload []byte) (bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.idx[h]; ok {
		return false, nil
	}
	if err := p.unwritable(); err != nil {
		return false, err
	}
	frame := appendFrame(make([]byte, 0, packFrameOverhead+len(payload)), h, payload)
	if _, err := p.f.WriteAt(frame, p.size); err != nil {
		if terr := truncateTail(p.f, p.size); terr != nil {
			p.poisoned = fmt.Errorf("durable: chunk append to %s failed (%v) and cutting it back failed too (%v); pack disabled until reopen", p.path, err, terr)
			return false, p.poisoned
		}
		return false, err
	}
	p.idx[h] = chunkLoc{off: p.size + packFrameOverhead, n: uint32(len(payload))}
	p.size += int64(len(frame))
	return true, nil
}

// unwritable reports why the pack takes no write: closed, or poisoned.
func (p *chunkPack) unwritable() error {
	if p.f == nil {
		return fmt.Errorf("durable: chunk pack %s is closed", p.path)
	}
	return p.poisoned
}

// get reads one chunk's payload into buf — grown when it is too small —
// re-verifying its content hash (detects on-disk corruption after open). The
// payload is the caller's until it reuses buf. Concurrent gets read and hash
// in parallel.
func (p *chunkPack) get(h ChunkHash, buf []byte) ([]byte, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.getLocked(h, buf)
}

// getLocked is get for a caller holding mu, shared or alone.
func (p *chunkPack) getLocked(h ChunkHash, buf []byte) ([]byte, error) {
	loc, ok := p.idx[h]
	if !ok {
		return nil, fmt.Errorf("durable: chunk %s missing from pack %s", h, p.path)
	}
	if p.f == nil {
		return nil, fmt.Errorf("durable: chunk pack %s is closed", p.path)
	}
	payload := slices.Grow(buf[:0], int(loc.n))[:loc.n]
	if _, err := p.f.ReadAt(payload, loc.off); err != nil {
		return nil, fmt.Errorf("durable: reading chunk %s: %w", h, err)
	}
	if got := hashChunk(payload); got != h {
		return nil, fmt.Errorf("durable: chunk %s content hash mismatch (%s)", h, got)
	}
	return payload, nil
}

// sizeOf returns the payload size of an indexed chunk.
func (p *chunkPack) sizeOf(h ChunkHash) (uint32, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	loc, ok := p.idx[h]
	return loc.n, ok
}

// sync makes every appended chunk durable.
func (p *chunkPack) sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.unwritable(); err != nil {
		return err
	}
	return p.f.Sync()
}

// close releases the file handle.
func (p *chunkPack) close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.f == nil {
		return nil
	}
	err := p.f.Close()
	p.f = nil
	return err
}

// bytes returns the pack's frame bytes total and the portion referenced by
// live (the payload bytes of indexed chunks in the live set, with framing).
func (p *chunkPack) bytes(live map[ChunkHash]struct{}) (total, liveBytes int64) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for h, loc := range p.idx {
		total += packFrameOverhead + int64(loc.n)
		if _, ok := live[h]; ok {
			liveBytes += packFrameOverhead + int64(loc.n)
		}
	}
	return total, liveBytes
}

// compact rewrites the pack holding only the chunks in keep, in the order
// they sit in the pack: frames stream to a temp file which is fsynced and
// renamed over the pack, and the index is rebuilt against the new file.
// Retention GC keeps the live chunks; fsck -repair keeps every valid one,
// which drops the corrupt frames. Every payload is re-hashed on the way
// (getLocked): copying a silently-rotted chunk forward would launder the
// corruption behind a fresh CRC, so that aborts and leaves the old pack, and
// its detectable mismatch, intact. Readers are excluded for the duration.
func (p *chunkPack) compact(keep map[ChunkHash]struct{}) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.f == nil {
		return fmt.Errorf("durable: chunk pack %s is closed", p.path)
	}
	hs := make([]ChunkHash, 0, len(keep))
	for h := range keep {
		if _, ok := p.idx[h]; !ok {
			return fmt.Errorf("durable: compacting %s: chunk %s missing", p.path, h)
		}
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return p.idx[hs[i]].off < p.idx[hs[j]].off })
	dir := filepath.Dir(p.path)
	tmp, err := p.fsys.CreateTemp(dir, ".chunks-*.tmp")
	if err != nil {
		return err
	}
	defer p.fsys.Remove(tmp.Name())
	fail := func(err error) error {
		tmp.Close()
		return err
	}
	bw := bufio.NewWriterSize(tmp, 1<<20)
	if _, err := bw.Write(packHeader()); err != nil {
		return fail(err)
	}
	newIdx := make(map[ChunkHash]chunkLoc, len(hs))
	off := int64(packHeaderSize)
	var frame, payload []byte
	for _, h := range hs {
		payload, err = p.getLocked(h, payload)
		if err != nil {
			return fail(fmt.Errorf("durable: compacting %s: %w", p.path, err))
		}
		frame = appendFrame(frame[:0], h, payload)
		if _, err := bw.Write(frame); err != nil {
			return fail(err)
		}
		newIdx[h] = chunkLoc{off: off + packFrameOverhead, n: uint32(len(payload))}
		off += int64(len(frame))
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := p.fsys.Rename(tmp.Name(), p.path); err != nil {
		return err
	}
	if err := p.fsys.SyncDir(dir); err != nil {
		return err
	}
	f, err := p.fsys.OpenFile(p.path, os.O_RDWR, 0o644)
	if err != nil {
		// The old handle now reads the unlinked pre-compaction file — still
		// consistent, so keep serving from it rather than failing the store.
		return fmt.Errorf("durable: reopening compacted pack %s: %w", p.path, err)
	}
	p.f.Close()
	p.f = f
	p.idx = newIdx
	p.size = off
	return nil
}
