package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"repro/internal/cvd"
	"repro/internal/relstore"
	"repro/internal/vfs"
	"repro/internal/vgraph"
)

// The commit WAL is an append-only file of self-delimiting records:
//
//	header: magic "ORPHWAL1", uint32 WAL format version, uint64 epoch
//	record: uint32 payload length, uint32 CRC32(payload), payload
//
// Each payload is one logical engine operation (init / commit / drop). The
// file is fsynced after every append — the commit boundary — so a committed
// version survives a crash. Replay reads records until the end of the file;
// a torn tail (short header, short payload, or CRC mismatch from a crashed
// append) ends replay and is truncated away, keeping every fully-committed
// record before it.

// walHeaderSize is the fixed byte length of the WAL header.
const walHeaderSize = 8 + 4 + 8

// RecordOp enumerates the logical operations a WAL record can carry.
type RecordOp uint8

// WAL record operations.
const (
	OpInit   RecordOp = 1 // create a CVD with its initial version
	OpCommit RecordOp = 2 // commit a new version (the delta schema carries schema changes too)
	OpDrop   RecordOp = 3 // drop a CVD
)

// Record is one decoded WAL entry: a logical redo operation. An init or commit
// record is the version's delta exactly as cvd.Journal.LogCommit received it
// (and as cvd.ReplayCommit takes it back), never the version's full image.
type Record struct {
	Op       RecordOp
	CVD      string
	Versions []vgraph.VersionID // the new version's id, then its parents (none for OpInit)
	Schema   relstore.Schema    // delta table schema: rid, then the data schema after the commit
	Delta    []relstore.Row     // a full-width row per added record, a rid-only row per dropped one
	Message  string
	Author   string
	At       time.Time // original commit timestamp, reproduced on replay
}

// added returns how many records r adds and the first one's id.
func (r *Record) added() (n int, first vgraph.RecordID) {
	for _, row := range r.Delta {
		if len(row) > 1 {
			if n == 0 {
				first = vgraph.RecordID(row[0].AsInt())
			}
			n++
		}
	}
	return n, first
}

// encodeRecord appends r's payload to e. Init and commit records share one
// layout (see FORMAT.md, "WAL segments"): the added records' data attributes
// go through the same column-band codec as checkpointed table columns, in
// bands of DefaultBandRows; rids — added and dropped — are zigzag varint gaps,
// at least one byte each, which is what lets decodeRecord bound every count by
// the bytes that remain.
func encodeRecord(e *enc, r *Record) error {
	e.u8(uint8(r.Op))
	e.str(r.CVD)
	if r.Op == OpDrop {
		return nil
	}
	if r.Op == OpInit {
		e.uvarint(uint64(cvd.SplitByRlist)) // the model field: the only model that persists
	}
	width := len(r.Schema.Columns)
	if len(r.Versions) == 0 || width < 2 {
		return fmt.Errorf("durable: WAL record for %s names %d versions over %d delta columns; want the version id and a rid column plus data", r.CVD, len(r.Versions), width)
	}
	e.uvarint(uint64(len(r.Versions)))
	for _, v := range r.Versions {
		e.uvarint(uint64(v))
	}
	e.schema(r.Schema)
	e.str(r.Message)
	e.str(r.Author)
	e.varint(timeNano(r.At))

	// Lay the added records out column-wise; NewTable would index a primary
	// key, so the scratch table gets the data columns without one.
	added := relstore.NewTable("", relstore.Schema{Columns: r.Schema.Columns[1:]})
	var addedRIDs, droppedRIDs []int64
	for _, row := range r.Delta {
		switch len(row) {
		case 1:
			droppedRIDs = append(droppedRIDs, row[0].AsInt())
		case width:
			addedRIDs = append(addedRIDs, row[0].AsInt())
			added.AppendRow(row[1:])
		default:
			return fmt.Errorf("durable: WAL record for %s: a delta row of %d values is neither a tombstone nor a record of %d", r.CVD, len(row), width)
		}
	}
	e.ridGaps(droppedRIDs)
	e.ridGaps(addedRIDs)
	var band enc
	for lo := 0; lo < len(addedRIDs); lo += DefaultBandRows {
		hi := min(lo+DefaultBandRows, len(addedRIDs))
		for ci := 0; ci < width-1; ci++ {
			band.b = band.b[:0]
			encodeColBand(&band, added.ColumnLanes(ci), lo, hi, false)
			e.uvarint(uint64(len(band.b)))
			e.raw(band.b)
		}
	}
	return nil
}

// ridGaps appends a rid list as its length and the zigzag varint gap from each
// rid to the next (the first from zero).
func (e *enc) ridGaps(rids []int64) {
	e.uvarint(uint64(len(rids)))
	prev := int64(0)
	for _, rid := range rids {
		e.varint(rid - prev)
		prev = rid
	}
}

func (d *dec) ridGaps() []int64 {
	rids := make([]int64, d.length(1))
	prev := int64(0)
	for i := range rids {
		prev += d.varint()
		rids[i] = prev
	}
	return rids
}

func decodeRecord(payload []byte) (*Record, error) {
	d := &dec{b: payload}
	r := &Record{Op: RecordOp(d.u8()), CVD: d.str()}
	switch r.Op {
	case OpInit, OpCommit:
		if r.Op == OpInit {
			if err := cvd.CheckDurable(r.CVD, cvd.ModelKind(d.uvarint())); err != nil {
				return nil, err
			}
		}
		r.Versions = make([]vgraph.VersionID, d.length(1))
		for i := range r.Versions {
			r.Versions[i] = vgraph.VersionID(d.uvarint())
		}
		r.Schema = d.schema()
		r.Message = d.str()
		r.Author = d.str()
		r.At = nanoTime(d.varint())
		if err := d.delta(r); err != nil {
			return nil, err
		}
	case OpDrop:
	default:
		return nil, fmt.Errorf("durable: unknown WAL op %d", uint8(r.Op))
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("durable: WAL record: %d trailing bytes", len(payload)-d.off)
	}
	return r, nil
}

// delta decodes the dropped rids and the added records of an init or commit
// record into r.Delta, added records first.
func (d *dec) delta(r *Record) error {
	droppedRIDs := d.ridGaps()
	addedRIDs := d.ridGaps()
	if d.err != nil {
		return d.err
	}
	if len(r.Versions) == 0 || len(r.Schema.Columns) < 2 {
		return fmt.Errorf("durable: WAL record for %s names %d versions over %d delta columns", r.CVD, len(r.Versions), len(r.Schema.Columns))
	}
	data := relstore.Schema{Columns: r.Schema.Columns[1:]}
	lanes := make([]relstore.ColumnLanes, len(data.Columns))
	for lo := 0; lo < len(addedRIDs); lo += DefaultBandRows {
		want := min(DefaultBandRows, len(addedRIDs)-lo)
		for ci := range lanes {
			band := d.raw(d.length(1))
			if d.err != nil {
				return d.err
			}
			var n int
			var err error
			if lanes[ci], _, n, err = decodeColBand(band, lanes[ci], len(addedRIDs)); err != nil {
				return fmt.Errorf("durable: WAL record for %s: column %d band at row %d: %w", r.CVD, ci, lo, err)
			}
			if n != want {
				return fmt.Errorf("durable: WAL record for %s: column %d band at row %d has %d rows, want %d", r.CVD, ci, lo, n, want)
			}
		}
	}
	added, err := relstore.NewTableFromLanes("", data, relstore.ClusterNone, len(addedRIDs), lanes, nil)
	if err != nil {
		return fmt.Errorf("durable: WAL record for %s: %w", r.CVD, err)
	}
	r.Delta = make([]relstore.Row, 0, len(addedRIDs)+len(droppedRIDs))
	for i, rid := range addedRIDs {
		row := make(relstore.Row, len(r.Schema.Columns))
		row[0] = relstore.Int(rid)
		for ci := range data.Columns {
			row[ci+1] = added.At(i, ci)
		}
		r.Delta = append(r.Delta, row)
	}
	for _, rid := range droppedRIDs {
		r.Delta = append(r.Delta, relstore.Row{relstore.Int(rid)})
	}
	return nil
}

// writeWALHeader (re)writes the header at the start of f and truncates
// everything after it.
func writeWALHeader(f vfs.File, epoch uint64) error {
	var hdr [walHeaderSize]byte
	copy(hdr[:8], walMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], walFormatVersion)
	binary.LittleEndian.PutUint64(hdr[12:], epoch)
	if err := f.Truncate(0); err != nil {
		return err
	}
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	return f.Sync()
}

// readWALHeader validates the header and returns the epoch.
func readWALHeader(f vfs.File) (uint64, error) {
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, walHeaderSize), hdr[:]); err != nil {
		return 0, fmt.Errorf("durable: reading WAL header: %w", err)
	}
	if string(hdr[:8]) != walMagic {
		return 0, fmt.Errorf("durable: not a WAL file (magic %q)", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != walFormatVersion {
		return 0, fmt.Errorf("durable: WAL segment is format version %d, this build reads version %d only (version 2 logged every commit as a full version image, version 3 logs its delta); open the directory with the build that wrote it, `save` an export, and load the export", v, walFormatVersion)
	}
	return binary.LittleEndian.Uint64(hdr[12:]), nil
}

// checkWALHeader validates seg's header and that it carries the epoch its
// name says.
func checkWALHeader(f vfs.File, seg walSegment) error {
	e, err := readWALHeader(f)
	if err != nil {
		return fmt.Errorf("%s: %w", seg.path, err)
	}
	if e != seg.epoch {
		return fmt.Errorf("durable: WAL segment %s carries epoch %d", seg.path, e)
	}
	return nil
}

// scanWAL validates the record frames after the header without decoding
// payloads (pass 1 of recovery): it returns the offset just past the last
// fully-valid record and whether a torn tail — truncated header or payload,
// or a CRC mismatch from a crashed append — follows it.
func scanWAL(f vfs.File) (validEnd int64, torn bool, err error) {
	info, err := f.Stat()
	if err != nil {
		return 0, false, err
	}
	size := info.Size()
	offset := int64(walHeaderSize)
	var hdr [8]byte
	var payload []byte
	for {
		if size-offset < int64(len(hdr)) {
			return offset, size > offset, nil
		}
		if _, err := f.ReadAt(hdr[:], offset); err != nil {
			return offset, false, err
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		want := binary.LittleEndian.Uint32(hdr[4:])
		if size-offset-int64(len(hdr)) < int64(n) {
			return offset, true, nil
		}
		if int(n) > cap(payload) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := f.ReadAt(payload, offset+int64(len(hdr))); err != nil {
			return offset, false, err
		}
		if crc32.ChecksumIEEE(payload) != want {
			return offset, true, nil
		}
		offset += int64(len(hdr)) + int64(n)
	}
}

// walState is one WAL segment's header and framing: what the open acts on
// and Scrub reports.
type walState struct {
	walSegment
	headerErr error // the open's refusal of the header
	validEnd  int64 // where the valid records end
	torn      bool  // bytes follow validEnd
	short     bool  // an active segment shorter than its header: the open writes it
}

// scanWALSegment checks one segment's header and framing without changing
// it; the records are decoded by replayWAL. Only the active segment may be
// shorter than its header.
func scanWALSegment(fsys vfs.FS, seg walSegment, active bool) (*walState, error) {
	ws := &walState{walSegment: seg}
	f, err := vfs.Open(fsys, seg.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if active && info.Size() < walHeaderSize {
		// Crash inside BeginCheckpoint before the new segment's header
		// landed; the open completes the header.
		ws.short, ws.validEnd, ws.torn = true, walHeaderSize, info.Size() > 0
		return ws, nil
	}
	if ws.headerErr = checkWALHeader(f, seg); ws.headerErr != nil {
		return ws, nil
	}
	ws.validEnd, ws.torn, err = scanWAL(f)
	return ws, err
}

// replayWAL streams every record between the header and end to apply,
// decoding one payload at a time so replaying a large WAL never materializes
// the whole log in memory. end is where scanWAL found the valid records to
// stop, so every frame here is complete and CRC-valid. path names the segment
// in errors.
func replayWAL(f vfs.File, path string, end int64, apply func(*Record) error) (applied int, err error) {
	offset := int64(walHeaderSize)
	var hdr [8]byte
	for end-offset >= int64(len(hdr)) {
		if _, err := f.ReadAt(hdr[:], offset); err != nil {
			return applied, err
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		payload := make([]byte, n)
		if _, err := f.ReadAt(payload, offset+int64(len(hdr))); err != nil {
			return applied, err
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			// A record that passes its CRC but does not decode is real
			// corruption, not a torn tail: fail loudly instead of silently
			// dropping committed history.
			return applied, fmt.Errorf("durable: WAL segment %s record %d: %w", path, applied, err)
		}
		if err := apply(rec); err != nil {
			return applied, fmt.Errorf("durable: replaying WAL segment %s record %d: %w", path, applied, err)
		}
		applied++
		offset += int64(len(hdr)) + int64(n)
	}
	return applied, nil
}

// encodeFrame frames one record — uint32 length, uint32 CRC32, payload — as
// the byte slice the group-commit queue hands to the batch leader, which
// writes and fsyncs every frame of its batch in one pass (the commit
// boundary).
func encodeFrame(rec *Record) ([]byte, error) {
	var e enc
	e.b = make([]byte, 8) // header placeholder
	if err := encodeRecord(&e, rec); err != nil {
		return nil, err
	}
	payload := e.b[8:]
	if len(payload) > math.MaxUint32 {
		// A wrapped length field would frame-corrupt the log and take every
		// later record down with it during torn-tail recovery.
		return nil, fmt.Errorf("durable: WAL record of %d bytes exceeds the 4 GiB frame limit; checkpoint and commit in smaller batches", len(payload))
	}
	binary.LittleEndian.PutUint32(e.b[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(e.b[4:8], crc32.ChecksumIEEE(payload))
	return e.b, nil
}
