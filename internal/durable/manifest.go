package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sync/atomic"

	"repro/internal/cvd"
	"repro/internal/parallel"
	"repro/internal/relstore"
	"repro/internal/vfs"
)

// A checkpoint manifest is the root of one epoch's snapshot: per-table and
// per-CVD geometry plus the chunk hash of every section. The manifest file
// is small (16 bytes per chunk reference), written atomically via temp +
// rename after the pack is fsynced, and named for its epoch —
// manifest-<epoch>.orph — so a directory listing enumerates the retained
// restore points.
//
//	file: magic "ORPHMAN1", uint32 manifest format version,
//	      uint32 payload length, uint32 CRC32(payload), payload
//
// Payload layout (enc encoding):
//
//	str dbName, u64 epoch
//	uvarint ntables, per table: tableMeta, ncols × nbands × hash16 (col-major)
//	uvarint ncvds, per CVD: cvdLayout, head hash16, recset-run hashes
//
// A CVD's record catalog is one of the tables and its record-set runs are its
// versioning table (see cvd.PersistentState): manifest version 3 dropped the
// per-CVD catalog-band section version 2 kept beside the tables, version 4
// the versioning table version 3 listed among them, and version 5 the full
// set of every version that version 4's runs (chunk kind 4) stored: a run
// (kind 5) stores each version in full or as its delta from its parents.
// Since version 7 the data table is a CVD's only table: its metadata is in
// its head, where version 6 also listed a metadata table among the tables.

// manifest is one decoded checkpoint manifest.
type manifest struct {
	dbName string
	epoch  uint64
	tables []manifestTable
	cvds   []manifestCVD
}

type manifestTable struct {
	meta tableMeta
	cols [][]ChunkHash // [column][band]
}

type manifestCVD struct {
	layout cvdLayout
	head   ChunkHash
	runs   []ChunkHash
}

// ManifestFileName returns the manifest file name for an epoch; the fixed-
// width hex key makes lexical order equal epoch order.
func ManifestFileName(epoch uint64) string {
	return fmt.Sprintf("manifest-%016x.orph", epoch)
}

// parseManifestName extracts the epoch from a manifest file name.
func parseManifestName(name string) (uint64, bool) {
	var epoch uint64
	var tail string
	if n, err := fmt.Sscanf(name, "manifest-%16x%s", &epoch, &tail); err != nil || n != 2 || tail != ".orph" {
		return 0, false
	}
	return epoch, true
}

func (e *enc) chunkHash(h ChunkHash) { e.b = append(e.b, h[:]...) }

func (d *dec) chunkHash() ChunkHash {
	var h ChunkHash
	copy(h[:], d.raw(16))
	return h
}

// hashesFit reports whether count 16-byte chunk hashes can still be present
// in the remaining payload, failing the decoder otherwise. Band counts are
// derived from decoded geometry (rows ÷ band height), not read directly, so
// this check must run before the hash slices are allocated — a corrupt
// manifest could otherwise demand terabytes.
func (d *dec) hashesFit(count int64, what string) bool {
	if d.err != nil {
		return false
	}
	if remaining := int64(len(d.b) - d.off); count < 0 || count > remaining/16 {
		d.fail("%s: %d chunk hashes exceed remaining %d bytes", what, count, remaining)
		return false
	}
	return true
}

// encodeManifestPayload serializes the manifest body (without file framing).
func encodeManifestPayload(e *enc, m *manifest) {
	e.str(m.dbName)
	e.u64(m.epoch)
	e.uvarint(uint64(len(m.tables)))
	for i := range m.tables {
		t := &m.tables[i]
		e.tableMeta(&t.meta)
		for _, bands := range t.cols {
			for _, h := range bands {
				e.chunkHash(h)
			}
		}
	}
	e.uvarint(uint64(len(m.cvds)))
	for i := range m.cvds {
		c := &m.cvds[i]
		e.cvdLayout(&c.layout)
		e.chunkHash(c.head)
		for _, h := range c.runs {
			e.chunkHash(h)
		}
	}
}

// decodeManifestPayload parses a manifest body.
func decodeManifestPayload(payload []byte) (*manifest, error) {
	d := &dec{b: payload}
	m := &manifest{dbName: d.str(), epoch: d.u64()}
	ntables := d.length(2)
	m.tables = make([]manifestTable, 0, ntables)
	for i := 0; i < ntables; i++ {
		var t manifestTable
		t.meta = d.tableMeta()
		if d.err != nil {
			return nil, d.err
		}
		nbands := numBands(t.meta.nrows, t.meta.bandRows)
		if !d.hashesFit(int64(nbands)*int64(len(t.meta.schema.Columns)), "table "+t.meta.name) {
			return nil, d.err
		}
		t.cols = make([][]ChunkHash, len(t.meta.schema.Columns))
		for ci := range t.cols {
			bands := make([]ChunkHash, nbands)
			for b := range bands {
				bands[b] = d.chunkHash()
			}
			t.cols[ci] = bands
		}
		if d.err != nil {
			return nil, d.err
		}
		m.tables = append(m.tables, t)
	}
	ncvds := d.length(2)
	m.cvds = make([]manifestCVD, 0, ncvds)
	for i := 0; i < ncvds; i++ {
		var c manifestCVD
		c.layout = d.cvdLayout()
		if d.err != nil {
			return nil, d.err
		}
		c.head = d.chunkHash()
		nruns := numBands(c.layout.sets, c.layout.runLen)
		if !d.hashesFit(int64(nruns), "CVD "+c.layout.name) {
			return nil, d.err
		}
		c.runs = make([]ChunkHash, nruns)
		for b := range c.runs {
			c.runs[b] = d.chunkHash()
		}
		if d.err != nil {
			return nil, d.err
		}
		m.cvds = append(m.cvds, c)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("durable: manifest: %d trailing bytes", len(payload)-d.off)
	}
	return m, nil
}

// writeManifestFile writes the manifest atomically into dir and returns its
// file size. The chunk pack must already be fsynced: the rename is the
// commit point of the checkpoint.
func writeManifestFile(fsys vfs.FS, dir string, m *manifest) (int64, error) {
	var e enc
	e.raw([]byte(manifestMagic))
	e.u32(manifestFormatVersion)
	e.u32(0) // payload length placeholder
	e.u32(0) // payload CRC placeholder
	bodyStart := len(e.b)
	encodeManifestPayload(&e, m)
	payload := e.b[bodyStart:]
	binary.LittleEndian.PutUint32(e.b[12:16], uint32(len(payload)))
	binary.LittleEndian.PutUint32(e.b[16:20], crc32.ChecksumIEEE(payload))

	tmp, err := fsys.CreateTemp(dir, ".manifest-*.tmp")
	if err != nil {
		return 0, err
	}
	defer fsys.Remove(tmp.Name())
	if _, err := tmp.Write(e.b); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := fsys.Rename(tmp.Name(), filepath.Join(dir, ManifestFileName(m.epoch))); err != nil {
		return 0, err
	}
	return int64(len(e.b)), fsys.SyncDir(dir)
}

// readManifestFile loads and validates one manifest file.
func readManifestFile(fsys vfs.FS, path string) (*manifest, error) {
	data, err := vfs.ReadFile(fsys, path)
	if err != nil {
		return nil, err
	}
	if len(data) < 20 {
		return nil, fmt.Errorf("durable: manifest %s: truncated header", path)
	}
	if string(data[:8]) != manifestMagic {
		return nil, fmt.Errorf("durable: %s is not a manifest (magic %q)", path, data[:8])
	}
	switch v := binary.LittleEndian.Uint32(data[8:12]); v {
	case manifestFormatVersion:
	case 2, 3, 4, 5, 6:
		return nil, fmt.Errorf("durable: %s is a format version %d manifest, %w", path, v, errManifestVersion)
	default:
		return nil, fmt.Errorf("durable: unsupported manifest version %d (want %d)", v, manifestFormatVersion)
	}
	n := binary.LittleEndian.Uint32(data[12:16])
	want := binary.LittleEndian.Uint32(data[16:20])
	if int64(n) != int64(len(data)-20) {
		return nil, fmt.Errorf("durable: manifest %s: payload length %d does not match file size", path, n)
	}
	payload := data[20:]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("durable: manifest %s: CRC mismatch (%08x != %08x)", path, got, want)
	}
	m, err := decodeManifestPayload(payload)
	if err != nil {
		return nil, fmt.Errorf("durable: manifest %s: %w", path, err)
	}
	return m, nil
}

// chunkRefs calls fn for every chunk reference in the manifest, with the kind
// of chunk its section holds (duplicates included — identical bands of
// different epochs, or within one epoch, reference the same chunk).
func (m *manifest) chunkRefs(fn func(ChunkHash, uint8)) {
	for i := range m.tables {
		for _, bands := range m.tables[i].cols {
			for _, h := range bands {
				fn(h, chunkColBand)
			}
		}
	}
	for i := range m.cvds {
		c := &m.cvds[i]
		fn(c.head, chunkCVDHead)
		for _, h := range c.runs {
			fn(h, chunkRecsetRun)
		}
	}
}

// chunkGetter reads one chunk's payload into buf (grown when it is too
// small): chunkPack.get. A loader reuses one buffer per unit, since nothing
// it decodes keeps the payload's bytes.
type chunkGetter func(h ChunkHash, buf []byte) ([]byte, error)

// addColumn decodes column ci's bands, fetched through get, into asm in band
// order.
func (mt *manifestTable) addColumn(asm *tableAssembler, ci int, get chunkGetter) error {
	var payload []byte
	for _, h := range mt.cols[ci] {
		var err error
		payload, err = get(h, payload)
		if err != nil {
			return fmt.Errorf("durable: table %s: %w", mt.meta.name, err)
		}
		if err := asm.addBand(ci, payload); err != nil {
			return err
		}
	}
	return nil
}

// decodeHead decodes the CVD's head chunk, fetched through get.
func (mc *manifestCVD) decodeHead(get chunkGetter) (*cvd.PersistentState, error) {
	head, err := get(mc.head, nil)
	if err != nil {
		return nil, fmt.Errorf("durable: CVD %s head: %w", mc.layout.name, err)
	}
	st, err := decodeCVDHead(head)
	if err != nil {
		return nil, err
	}
	if st.Name != mc.layout.name {
		return nil, fmt.Errorf("durable: CVD head names %q, manifest says %q", st.Name, mc.layout.name)
	}
	return st, nil
}

// addRecordSets decodes the CVD's record-set runs, fetched through get and
// delivered in order, into st.RecordSets: the versioning table. st is the
// decoded head, whose metadata names the parents a delta entry is rebuilt
// from.
func (mc *manifestCVD) addRecordSets(st *cvd.PersistentState, get chunkGetter) error {
	l := mc.layout
	if l.sets > 0 {
		st.RecordSets = make([]cvd.VersionRecordSet, 0, l.sets)
	}
	var payload []byte
	for _, h := range mc.runs {
		var err error
		payload, err = get(h, payload)
		if err != nil {
			return fmt.Errorf("durable: CVD %s record sets: %w", l.name, err)
		}
		before := len(st.RecordSets)
		if before >= l.sets {
			return fmt.Errorf("durable: CVD %s: more record-set runs than %d sets need", l.name, l.sets)
		}
		sets, err := decodeRecsetRun(st.RecordSets, payload, st)
		if err != nil {
			return fmt.Errorf("durable: CVD %s record-set run at %d: %w", l.name, before, err)
		}
		if want := min(l.runLen, l.sets-before); len(sets)-before != want {
			return fmt.Errorf("durable: CVD %s record-set run at %d: %d sets, want %d", l.name, before, len(sets)-before, want)
		}
		st.RecordSets = sets
	}
	if got := len(st.RecordSets); got != l.sets {
		return fmt.Errorf("durable: CVD %s: assembled %d of %d record sets", l.name, got, l.sets)
	}
	return nil
}

// loadUnit is one unit of a checkpoint load: column col of table i, or, with
// col -1, table i when it has no columns (the unit only builds it); or, past
// the tables, CVD i's head and runs.
type loadUnit struct {
	cvd    bool
	i, col int
}

// loadUnits lists the load's units in the order a sequential load reads the
// checkpoint: every column of every table, then every CVD.
func (m *manifest) loadUnits() []loadUnit {
	var units []loadUnit
	for ti := range m.tables {
		if len(m.tables[ti].cols) == 0 {
			units = append(units, loadUnit{false, ti, -1})
		}
		for ci := range m.tables[ti].cols {
			units = append(units, loadUnit{false, ti, ci})
		}
	}
	for i := range m.cvds {
		units = append(units, loadUnit{true, i, 0})
	}
	return units
}

// loadSnapshotFromManifest assembles the full snapshot a manifest describes,
// fetching chunk payloads through get (which must be safe for concurrent
// use), on up to workers goroutines (<= 0 selects GOMAXPROCS), and returns
// the number of goroutines it used. Each unit (loadUnits) runs on its own: a
// column decodes its bands in order, straight into lanes sized once for the
// whole table, and the last of a table's columns to finish builds the table,
// unless one of them failed; a CVD decodes its head, then its runs.
// parallel.ForEachErr returns the lowest-indexed unit's error, so the load
// refuses with the error a sequential load meets first: a table's own refusal
// sits among its columns' units, after every earlier table's and before every
// later one's and every CVD's.
func loadSnapshotFromManifest(m *manifest, get chunkGetter, workers int) (*Snapshot, int, error) {
	snap := &Snapshot{
		DBName: m.dbName,
		Epoch:  m.epoch,
		Tables: make([]*relstore.Table, len(m.tables)),
		CVDs:   make([]*cvd.PersistentState, len(m.cvds)),
	}
	asms := make([]*tableAssembler, len(m.tables))
	pending := make([]atomic.Int32, len(m.tables))
	failed := make([]atomic.Bool, len(m.tables))
	for ti := range m.tables {
		asms[ti] = newTableAssembler(m.tables[ti].meta)
		pending[ti].Store(int32(max(1, len(m.tables[ti].cols))))
	}
	units := m.loadUnits()
	err := parallel.ForEachErr(workers, len(units), func(k int) error {
		u := units[k]
		if u.cvd {
			mc := &m.cvds[u.i]
			st, err := mc.decodeHead(get)
			if err != nil {
				return err
			}
			snap.CVDs[u.i] = st
			return mc.addRecordSets(st, get)
		}
		var err error
		if u.col >= 0 {
			if err = m.tables[u.i].addColumn(asms[u.i], u.col, get); err != nil {
				failed[u.i].Store(true)
			}
		}
		if pending[u.i].Add(-1) > 0 || failed[u.i].Load() {
			return err
		}
		snap.Tables[u.i], err = asms[u.i].finish()
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return snap, parallel.Normalize(workers, len(units)), nil
}
