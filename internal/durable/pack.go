package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
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
// Opening scans the frames sequentially to rebuild the in-memory index,
// truncating a torn tail from a crashed append — safe because a chunk only
// becomes reachable once a manifest referencing it is durably renamed in,
// and manifests are written after the pack is fsynced.

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
// All methods are safe for concurrent use.
type chunkPack struct {
	mu   sync.Mutex
	fsys vfs.FS
	path string
	f    vfs.File
	idx  map[ChunkHash]chunkLoc
	size int64 // end of the last valid frame == next append offset
}

// openPack opens (creating if needed) the pack at path and scans its frames
// into the index. A torn tail is truncated; tornTail reports that.
func openPack(fsys vfs.FS, path string) (p *chunkPack, tornTail bool, err error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, false, err
	}
	fail := func(err error) (*chunkPack, bool, error) {
		f.Close()
		return nil, false, err
	}
	info, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	if info.Size() < packHeaderSize {
		// A crash while creating the pack: no chunk in it was ever written.
		if err := writePackHeader(f); err != nil {
			return fail(err)
		}
		return &chunkPack{fsys: fsys, path: path, f: f, idx: make(map[ChunkHash]chunkLoc), size: packHeaderSize}, false, nil
	}
	var hdr [packHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return fail(err)
	}
	if string(hdr[:8]) != packMagic {
		return fail(fmt.Errorf("durable: %s is not a chunk pack (magic %q)", path, hdr[:8]))
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != formatVersion {
		return fail(fmt.Errorf("durable: unsupported chunk pack version %d (want %d)", v, formatVersion))
	}

	idx := make(map[ChunkHash]chunkLoc)
	size := info.Size()
	br := bufio.NewReaderSize(io.NewSectionReader(f, packHeaderSize, size-packHeaderSize), 1<<20)
	off := int64(packHeaderSize)
	valid := off
	var frame [packFrameOverhead]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			if err == io.EOF {
				break
			}
			tornTail = true // short frame header
			break
		}
		var h ChunkHash
		copy(h[:], frame[:16])
		n := binary.LittleEndian.Uint32(frame[16:20])
		want := binary.LittleEndian.Uint32(frame[20:24])
		if int64(n) > size-off-packFrameOverhead {
			tornTail = true
			break
		}
		if int(n) > cap(payload) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			tornTail = true
			break
		}
		if crc32.ChecksumIEEE(payload) != want {
			tornTail = true
			break
		}
		idx[h] = chunkLoc{off: off + packFrameOverhead, n: n}
		off += packFrameOverhead + int64(n)
		valid = off
	}
	if tornTail {
		if err := truncateTail(f, valid); err != nil {
			return fail(err)
		}
	}
	return &chunkPack{fsys: fsys, path: path, f: f, idx: idx, size: valid}, tornTail, nil
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

// has reports whether the chunk is present.
func (p *chunkPack) has(h ChunkHash) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.idx[h]
	return ok
}

// put appends the chunk unless it is already present. It returns whether the
// chunk was written (false = deduplicated). Durability is the caller's:
// CompleteCheckpoint syncs the pack once before writing the manifest.
func (p *chunkPack) put(h ChunkHash, payload []byte) (bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.idx[h]; ok {
		return false, nil
	}
	if p.f == nil {
		return false, fmt.Errorf("durable: chunk pack %s is closed", p.path)
	}
	frame := make([]byte, packFrameOverhead+len(payload))
	copy(frame[:16], h[:])
	binary.LittleEndian.PutUint32(frame[16:20], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[20:24], crc32.ChecksumIEEE(payload))
	copy(frame[packFrameOverhead:], payload)
	if _, err := p.f.WriteAt(frame, p.size); err != nil {
		// The tail past size is garbage now; leave size unchanged so the next
		// put overwrites it, and open-time scanning would truncate it anyway.
		return false, err
	}
	p.idx[h] = chunkLoc{off: p.size + packFrameOverhead, n: uint32(len(payload))}
	p.size += int64(len(frame))
	return true, nil
}

// get reads one chunk's payload, re-verifying its CRC against the stored hash
// location (detects on-disk corruption after open).
func (p *chunkPack) get(h ChunkHash) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	loc, ok := p.idx[h]
	if !ok {
		return nil, fmt.Errorf("durable: chunk %s missing from pack %s", h, p.path)
	}
	if p.f == nil {
		return nil, fmt.Errorf("durable: chunk pack %s is closed", p.path)
	}
	payload := make([]byte, loc.n)
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
	p.mu.Lock()
	defer p.mu.Unlock()
	loc, ok := p.idx[h]
	return loc.n, ok
}

// sync makes every appended chunk durable.
func (p *chunkPack) sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.f == nil {
		return fmt.Errorf("durable: chunk pack %s is closed", p.path)
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
	p.mu.Lock()
	defer p.mu.Unlock()
	for h, loc := range p.idx {
		total += packFrameOverhead + int64(loc.n)
		if _, ok := live[h]; ok {
			liveBytes += packFrameOverhead + int64(loc.n)
		}
	}
	return total, liveBytes
}

// compact rewrites the pack keeping only live chunks: frames stream to a
// temp file which is fsynced and renamed over the pack, and the index is
// rebuilt against the new file. Readers are excluded for the duration.
func (p *chunkPack) compact(live map[ChunkHash]struct{}) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.f == nil {
		return fmt.Errorf("durable: chunk pack %s is closed", p.path)
	}
	dir := filepath.Dir(p.path)
	tmp, err := p.fsys.CreateTemp(dir, ".chunks-*.tmp")
	if err != nil {
		return err
	}
	defer p.fsys.Remove(tmp.Name())
	bw := bufio.NewWriterSize(tmp, 1<<20)
	if _, err := bw.Write(packHeader()); err != nil {
		tmp.Close()
		return err
	}
	newIdx := make(map[ChunkHash]chunkLoc, len(live))
	off := int64(packHeaderSize)
	var frame [packFrameOverhead]byte
	for h := range live {
		loc, ok := p.idx[h]
		if !ok {
			tmp.Close()
			return fmt.Errorf("durable: compacting %s: live chunk %s missing", p.path, h)
		}
		payload := make([]byte, loc.n)
		if _, err := p.f.ReadAt(payload, loc.off); err != nil {
			tmp.Close()
			return err
		}
		if got := hashChunk(payload); got != h {
			// Copying a silently-rotted live chunk forward would launder the
			// corruption behind a fresh CRC; abort and leave the old pack (and
			// its detectable mismatch) intact for fsck.
			tmp.Close()
			return fmt.Errorf("durable: compacting %s: chunk %s content hash mismatch (%s)", p.path, h, got)
		}
		copy(frame[:16], h[:])
		binary.LittleEndian.PutUint32(frame[16:20], loc.n)
		binary.LittleEndian.PutUint32(frame[20:24], crc32.ChecksumIEEE(payload))
		if _, err := bw.Write(frame[:]); err != nil {
			tmp.Close()
			return err
		}
		if _, err := bw.Write(payload); err != nil {
			tmp.Close()
			return err
		}
		newIdx[h] = chunkLoc{off: off + packFrameOverhead, n: loc.n}
		off += packFrameOverhead + int64(loc.n)
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
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
