// Package durable is the persistence subsystem of the engine: incremental,
// content-addressed checkpoints of the full engine state (columnar table
// lanes under sampled per-lane codecs, compressed record sets, version
// graphs, partition maps, and CVD metadata) plus an append-only commit
// write-ahead log with crash recovery. A live data directory holds the
// chunk pack (chunks.orph), one manifest per retained checkpoint epoch
// (manifest-<epoch>.orph), and epoch-named WAL segments (wal-<epoch>.orph);
// opening it assembles the latest manifest's chunks and replays the WAL
// segments at or after that epoch (tolerating a torn tail). A checkpoint
// writes only chunks whose content hash changed, seals the active WAL
// segment, and starts a new one — commits keep flowing while the chunks are
// encoded in the background. Prior manifests are retained for point-in-time
// restore; a refcounting GC drops unreferenced chunks.
//
// See FORMAT.md in this directory for the on-disk layout. The format is
// self-describing enough to fail loudly — every section and WAL record is
// CRC32-framed and the files carry magic plus a format version — but it is
// not portable across incompatible format versions: bump formatVersion on
// layout changes and keep readers refusing unknown versions.
package durable

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/relstore"
)

const (
	// formatVersion is bumped on any incompatible change to the chunk or pack
	// layout. Readers refuse other versions.
	// Version 2 introduced content-addressed chunked checkpoints (manifest +
	// chunk pack), lane codecs, and epoch-named WAL segments.
	formatVersion = 2

	// manifestFormatVersion is the manifests' own version, bumped when the
	// sections a manifest lists, or the chunks they name, change. Version 2
	// listed, per CVD, the bands of a record catalog stored apart from the
	// tables (chunk kind 3); version 3 has no such section — the catalog is one
	// of the tables — but listed each split-by-rlist CVD's versioning table
	// <cvd>_versions, whose rlist column held every version's records a second
	// time beside the record-set runs. Version 4 lists no such table: the
	// record-set runs are the versioning table, each version's set in full
	// (chunk kind 4). Version 5 stores each version in full or as its delta
	// from its parents, whichever is smaller (chunk kind 5). Version 6 lists no
	// partition tables: a CVD head keeps its partitioning as the partition
	// count, each version's partition and each partition's strays (the records
	// it holds beyond its versions' sets), and the records stay once, in the
	// data table. Version 7 lists no metadata table: a CVD head names no
	// tables, its one table is its data table, and the version metadata is
	// stored once, in the head. A manifest of an older version is refused
	// (errManifestVersion), not converted.
	manifestFormatVersion = 7

	// walFormatVersion is the WAL segments' own version, bumped when only the
	// record layout changes: a version 2 directory's checkpoints and exports
	// stay readable, its WAL segments do not. Version 3 replaced the full
	// version image in init and commit records with the version's delta.
	walFormatVersion = 3

	walMagic      = "ORPHWAL1"
	packMagic     = "ORPHPAK1"
	manifestMagic = "ORPHMAN1"

	// WALFile is the format v1 WAL name. v2 names WAL segments by epoch
	// (WALSegmentFileName); the old name is only detected to refuse v1
	// directories loudly.
	WALFile = "wal.orph"
)

// errManifestVersion refuses a manifest of another version, wherever one is
// read: open, restore at an epoch, fsck.
var errManifestVersion = fmt.Errorf("this build reads version %d only (version 2 stored every record a second time, as catalog bands; version 3 stored every version's record list a second time, as the rlist column of a versioning table; version 4 stored every version's record set in full; version 5 stored each partition as a second copy of its records; version 6 stored every version's metadata a second time, as the metadata table): export the versions to CSV with the build that wrote the directory and commit them to a fresh one", manifestFormatVersion)

// WALSegmentFileName returns the WAL segment file name for an epoch; the
// fixed-width hex key makes lexical order equal epoch order.
func WALSegmentFileName(epoch uint64) string {
	return fmt.Sprintf("wal-%016x.orph", epoch)
}

// parseWALSegmentName extracts the epoch from a WAL segment file name.
func parseWALSegmentName(name string) (uint64, bool) {
	var epoch uint64
	var tail string
	if n, err := fmt.Sscanf(name, "wal-%16x%s", &epoch, &tail); err != nil || n != 2 || tail != ".orph" {
		return 0, false
	}
	return epoch, true
}

// enc is a little-endian append-only encoder over a byte slice.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)       { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)     { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)     { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) raw(b []byte) { e.b = append(e.b, b...) }

// dec is the matching decoder with a sticky error: after the first failure
// every accessor returns zero values, so decode code reads linearly and
// checks d.err once per section.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("durable: "+format, args...)
	}
}

func (d *dec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if len(d.b)-d.off < n {
		d.fail("truncated payload: need %d bytes at offset %d of %d", n, d.off, len(d.b))
		return false
	}
	return true
}

func (d *dec) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// valueType reads a column type, refusing a number that names none (a
// ValueType is one byte: converting a larger number would truncate it into
// one).
func (d *dec) valueType() relstore.ValueType {
	n := d.uvarint()
	if n > uint64(relstore.TypeIntArray) {
		d.fail("unknown column type %d", n)
		return relstore.TypeNull
	}
	return relstore.ValueType(n)
}

// length reads a uvarint count and bounds it by the remaining bytes divided
// by minBytesPer, so corrupt counts fail instead of allocating gigabytes.
func (d *dec) length(minBytesPer int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if minBytesPer < 1 {
		minBytesPer = 1
	}
	if n > uint64((len(d.b)-d.off)/minBytesPer)+1 {
		d.fail("implausible element count %d with %d bytes left", n, len(d.b)-d.off)
		return 0
	}
	return int(n)
}

func (d *dec) str() string {
	n := d.length(1)
	if !d.need(n) {
		return ""
	}
	v := string(d.b[d.off : d.off+n])
	d.off += n
	return v
}

func (d *dec) raw(n int) []byte {
	if !d.need(n) {
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

// ---- shared sub-encodings ---------------------------------------------------

// timeNano is how a time.Time is persisted: UnixNano, with the zero time
// (whose UnixNano is undefined) stored as 0.
func timeNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// nanoTime is the decoding half of timeNano.
func nanoTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

func (e *enc) schema(s relstore.Schema) {
	e.uvarint(uint64(len(s.Columns)))
	for _, c := range s.Columns {
		e.str(c.Name)
		e.uvarint(uint64(c.Type))
	}
	e.uvarint(uint64(len(s.PrimaryKey)))
	for _, k := range s.PrimaryKey {
		e.str(k)
	}
}

func (d *dec) schema() relstore.Schema {
	ncols := d.length(2)
	cols := make([]relstore.Column, ncols)
	for i := range cols {
		cols[i] = relstore.Column{Name: d.str(), Type: d.valueType()}
	}
	npk := d.length(1)
	pk := make([]string, npk)
	for i := range pk {
		pk[i] = d.str()
	}
	if d.err != nil {
		return relstore.Schema{}
	}
	s, err := relstore.NewSchema(cols, pk...)
	if err != nil {
		d.fail("invalid schema: %v", err)
		return relstore.Schema{}
	}
	return s
}
