package durable

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/cvd"
	"repro/internal/recset"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// The format v2 snapshot is content-addressed: engine state is split into
// chunks — fixed-geometry row bands of each table column (a CVD's record
// catalog is its data table), the CVD head (graph, metadata, counters), and
// runs of per-version record sets (a CVD's versioning table: each set is a
// version's rlist) — each serialized independently and identified by the
// SHA-256 of its payload truncated to 16 bytes. A checkpoint manifest
// maps section → chunk hash, and chunk payloads live in the append-only
// chunk pack (pack.go), so a checkpoint writes only chunks whose content
// changed and retained manifests share unchanged chunks structurally.
//
// Band geometry is fixed multiples from row 0, so appending rows (the
// dominant mutation: commits append to the shared data table — which is the
// record catalog — and a record set to the runs) dirties only the tail band of
// each section while every full interior band keeps its hash.

// ChunkHash is the 16-byte truncated SHA-256 content address of a chunk
// payload (the payload includes its one-byte kind prefix).
type ChunkHash [16]byte

// String renders the hash as hex for diagnostics.
func (h ChunkHash) String() string { return hex.EncodeToString(h[:]) }

// hashChunk computes the content address of a chunk payload.
func hashChunk(payload []byte) ChunkHash {
	sum := sha256.Sum256(payload)
	var h ChunkHash
	copy(h[:], sum[:16])
	return h
}

// Chunk payload kinds (first payload byte).
const (
	chunkColBand     uint8 = 1 // one row band of one table column's lanes
	chunkCVDHead     uint8 = 2 // CVD identity, counters, graph, metas, partitioning
	chunkCatalogBand uint8 = 3 // retired with manifest version 2: a band of boxed catalog rows; nothing writes or reads it
	chunkFullSetRun  uint8 = 4 // retired with manifest version 5: a run of versions each stored in full; nothing writes or reads it
	chunkRecsetRun   uint8 = 5 // one run of per-version record sets, each in full or as its delta
)

// wrongKind is the error for a chunk whose kind byte is not the one its
// section calls for; the retired kinds are refused by name.
func wrongKind(k uint8, want string) error {
	switch k {
	case chunkCatalogBand:
		return fmt.Errorf("durable: chunk kind %d is the retired record-catalog band of manifest version 2, want %s", k, want)
	case chunkFullSetRun:
		return fmt.Errorf("durable: chunk kind %d is the retired full-set record-set run of manifest version 4, want %s", k, want)
	}
	return fmt.Errorf("durable: chunk kind %d, want %s", k, want)
}

// Band geometry. These are defaults for newly written checkpoints; readers
// take the actual geometry from the manifest or snapshot stream, so the
// constants can change without a format break.
const (
	// DefaultBandRows is the row-band height of table-column chunks.
	DefaultBandRows = 4096
	// defaultRecsetRun is how many version record sets form one chunk. Kept
	// small: the partial tail run is re-encoded on every checkpoint (its
	// content moves with each commit), so short runs let older — typically
	// larger — record sets settle into full, fingerprint-cached bands
	// quickly, keeping incremental checkpoints proportional to the delta.
	defaultRecsetRun = 16
	// bandTargetBytes caps roughly how many raw table bytes one row band
	// spans across all its columns. Fixed-height bands are fine for narrow
	// rows, but a table with fat cells (long strings, integer arrays) would
	// otherwise pack megabytes into the always-re-encoded tail band and
	// defeat incremental checkpoints.
	bandTargetBytes = 1 << 20
)

// maxBandRows bounds band geometry read from disk before any allocation.
const maxBandRows = 1 << 22

// numBands returns how many fixed-height bands cover n elements.
func numBands(n, band int) int {
	if n <= 0 || band <= 0 {
		return 0
	}
	return (n + band - 1) / band
}

// bandSpan returns the element range [lo, hi) of band b.
func bandSpan(b, band, n int) (int, int) {
	lo := b * band
	hi := lo + band
	if hi > n {
		hi = n
	}
	return lo, hi
}

// ---- table column bands -----------------------------------------------------

// Lane presence bits of a serialized column band.
const (
	laneInts uint8 = 1 << iota
	laneFloats
	laneStrs
	laneArrs
)

// encodeColBand appends the chunk payload for rows [lo, hi) of one column to
// e: kind, row count, lane presence mask, then each present lane under its
// sampled encoding id (lanecodec.go). rawLanes forces the identity encodings
// (the uncompressed baseline the codec tests compare against).
func encodeColBand(e *enc, l relstore.ColumnLanes, lo, hi int, rawLanes bool) {
	e.u8(chunkColBand)
	n := hi - lo
	e.uvarint(uint64(n))
	var present uint8
	if l.Ints != nil {
		present |= laneInts
	}
	if l.Floats != nil {
		present |= laneFloats
	}
	if l.Strs != nil {
		present |= laneStrs
	}
	if l.Arrs != nil {
		present |= laneArrs
	}
	e.u8(present)

	tags := l.Tags[lo:hi]
	tagEnc := relstore.TagEncRaw
	if !rawLanes {
		tagEnc = relstore.PickTagEnc(tags)
	}
	e.u8(tagEnc)
	e.b = relstore.AppendTagLane(e.b, tagEnc, tags)

	if l.Ints != nil {
		vals := l.Ints[lo:hi]
		intEnc := relstore.IntEncRaw
		if !rawLanes {
			intEnc = relstore.PickIntEnc(vals)
		}
		e.u8(intEnc)
		e.b = relstore.AppendIntLane(e.b, intEnc, vals)
	}
	if l.Floats != nil {
		e.b = relstore.AppendFloatLane(e.b, l.Floats[lo:hi])
	}
	if l.Strs != nil {
		vals := l.Strs[lo:hi]
		strEnc := relstore.StrEncRaw
		if !rawLanes {
			strEnc = relstore.PickStrEnc(vals)
		}
		e.u8(strEnc)
		e.b = relstore.AppendStrLane(e.b, strEnc, vals)
	}
	if l.Arrs != nil {
		arrs := l.Arrs[lo:hi]
		arrEnc := relstore.ArrEncRaw
		if !rawLanes {
			arrEnc = relstore.PickArrEnc(arrs)
		}
		e.u8(arrEnc)
		e.b = relstore.AppendArrLane(e.b, arrEnc, arrs)
	}
}

// decodeColBand decodes a column-band payload, appending each present lane
// into dst's lanes, and returns the grown lanes plus the presence mask and
// decoded row count. A present lane dst lacks is allocated once, with room for
// size cells or the band's, whichever is more: a column's first band sizes
// the lanes every later band appends to.
func decodeColBand(payload []byte, dst relstore.ColumnLanes, size int) (relstore.ColumnLanes, uint8, int, error) {
	fail := func(err error) (relstore.ColumnLanes, uint8, int, error) {
		return relstore.ColumnLanes{}, 0, 0, err
	}
	d := &dec{b: payload}
	if k := d.u8(); k != chunkColBand {
		return fail(wrongKind(k, "column band"))
	}
	n64 := d.uvarint()
	if n64 > maxBandRows {
		return fail(fmt.Errorf("durable: column band of %d rows exceeds the %d-row bound", n64, maxBandRows))
	}
	n := int(n64)
	size = max(size, n)
	present := d.u8()
	tagEnc := d.u8()
	if d.err != nil {
		return fail(d.err)
	}
	var err error
	var used int
	dst.Tags, used, err = relstore.DecodeTagLane(sized(dst.Tags, size), d.b[d.off:], tagEnc, n)
	if err != nil {
		return fail(err)
	}
	d.off += used
	if present&laneInts != 0 {
		intEnc := d.u8()
		if d.err != nil {
			return fail(d.err)
		}
		dst.Ints, used, err = relstore.DecodeIntLane(sized(dst.Ints, size), d.b[d.off:], intEnc, n)
		if err != nil {
			return fail(err)
		}
		d.off += used
	}
	if present&laneFloats != 0 {
		dst.Floats, used, err = relstore.DecodeFloatLane(sized(dst.Floats, size), d.b[d.off:], n)
		if err != nil {
			return fail(err)
		}
		d.off += used
	}
	if present&laneStrs != 0 {
		strEnc := d.u8()
		if d.err != nil {
			return fail(d.err)
		}
		dst.Strs, used, err = relstore.DecodeStrLane(sized(dst.Strs, size), d.b[d.off:], strEnc, n)
		if err != nil {
			return fail(err)
		}
		d.off += used
	}
	if present&laneArrs != 0 {
		arrEnc := d.u8()
		if d.err != nil {
			return fail(d.err)
		}
		dst.Arrs, used, err = relstore.DecodeArrLane(sized(dst.Arrs, size), d.b[d.off:], arrEnc, n)
		if err != nil {
			return fail(err)
		}
		d.off += used
	}
	if d.off != len(payload) {
		return fail(fmt.Errorf("durable: column band: %d trailing bytes", len(payload)-d.off))
	}
	return dst, present, n, nil
}

// sized returns lane, or a lane with room for size cells when there is none
// yet.
func sized[T any](lane []T, size int) []T {
	if lane == nil {
		return make([]T, 0, size)
	}
	return lane
}

// ---- table metadata and assembly --------------------------------------------

// tableMeta is the per-table header shared by manifests and the snapshot
// stream: everything about a table except its cell data.
type tableMeta struct {
	name     string
	schema   relstore.Schema
	cluster  relstore.ClusterMode
	index    []string
	nrows    int
	bandRows int
}

func (e *enc) tableMeta(m *tableMeta) {
	e.str(m.name)
	e.schema(m.schema)
	e.uvarint(uint64(m.cluster))
	e.uvarint(uint64(len(m.index)))
	for _, c := range m.index {
		e.str(c)
	}
	e.uvarint(uint64(m.nrows))
	e.uvarint(uint64(m.bandRows))
}

func (d *dec) tableMeta() tableMeta {
	var m tableMeta
	m.name = d.str()
	m.schema = d.schema()
	m.cluster = relstore.ClusterMode(d.uvarint())
	nidx := d.length(1)
	m.index = make([]string, nidx)
	for i := range m.index {
		m.index[i] = d.str()
	}
	nrows := d.uvarint()
	band := d.uvarint()
	if d.err != nil {
		return m
	}
	if band == 0 || band > maxBandRows {
		d.fail("table %s: implausible band height %d", m.name, band)
		return m
	}
	if nrows > 1<<40 {
		d.fail("table %s: implausible row count %d", m.name, nrows)
		return m
	}
	m.nrows = int(nrows)
	m.bandRows = int(band)
	return m
}

// metaForTable captures a table's serialization header.
func metaForTable(t *relstore.Table) tableMeta {
	return tableMeta{
		name:     t.Name,
		schema:   t.Schema,
		cluster:  t.Cluster,
		index:    t.IndexColumns(),
		nrows:    t.Len(),
		bandRows: bandRowsFor(t),
	}
}

// bandRowsFor sizes a table's row bands so one band spans roughly
// bandTargetBytes of accounted storage. The height shrinks in powers of four
// from DefaultBandRows, so narrow tables keep the default geometry and the
// boundaries only reshuffle (forcing a one-time full re-encode) when a
// table's average row width crosses a 4x threshold.
func bandRowsFor(t *relstore.Table) int {
	n := t.Len()
	if n == 0 {
		return DefaultBandRows
	}
	avg := t.StorageBytes() / int64(n)
	band := DefaultBandRows
	for band > 1 && int64(band)*avg > bandTargetBytes {
		band /= 4
	}
	return band
}

// tableAssembler rebuilds a table from its meta plus column-band chunks,
// delivered in band order per column. Columns are independent: each may be
// fed from its own goroutine.
type tableAssembler struct {
	meta  tableMeta
	lanes []relstore.ColumnLanes
	rows  []int // rows assembled so far, per column
	mask  []uint8
}

func newTableAssembler(meta tableMeta) *tableAssembler {
	ncols := len(meta.schema.Columns)
	return &tableAssembler{
		meta:  meta,
		lanes: make([]relstore.ColumnLanes, ncols),
		rows:  make([]int, ncols),
		mask:  make([]uint8, ncols),
	}
}

// addBand decodes the next band of column ci into the assembler. The first
// band allocates each lane its mask names once, for the whole column plus a
// quarter — the slack append gives a large slice when it first grows — so a
// reopened table takes its next commit in place, as a live one would.
func (a *tableAssembler) addBand(ci int, payload []byte) error {
	if ci < 0 || ci >= len(a.lanes) {
		return fmt.Errorf("durable: table %s: band for column %d of %d", a.meta.name, ci, len(a.lanes))
	}
	lo := a.rows[ci]
	if lo >= a.meta.nrows {
		return fmt.Errorf("durable: table %s: column %d has more bands than %d rows need", a.meta.name, ci, a.meta.nrows)
	}
	want := a.meta.bandRows
	if lo+want > a.meta.nrows {
		want = a.meta.nrows - lo
	}
	lanes, present, n, err := decodeColBand(payload, a.lanes[ci], a.meta.nrows+a.meta.nrows/4)
	if err != nil {
		return fmt.Errorf("durable: table %s column %d band at row %d: %w", a.meta.name, ci, lo, err)
	}
	if n != want {
		return fmt.Errorf("durable: table %s column %d band at row %d: %d rows, want %d", a.meta.name, ci, lo, n, want)
	}
	// Lane presence is a whole-column property (lanes materialize for the
	// full column or not at all), so every band must agree with the first.
	if lo > 0 && present != a.mask[ci] {
		return fmt.Errorf("durable: table %s column %d: lane mask changed between bands (%x != %x)", a.meta.name, ci, present, a.mask[ci])
	}
	a.lanes[ci] = lanes
	a.mask[ci] = present
	a.rows[ci] = lo + n
	return nil
}

// finish validates completeness and builds the table.
func (a *tableAssembler) finish() (*relstore.Table, error) {
	for ci, got := range a.rows {
		if got != a.meta.nrows {
			return nil, fmt.Errorf("durable: table %s column %d: assembled %d of %d rows", a.meta.name, ci, got, a.meta.nrows)
		}
	}
	return relstore.NewTableFromLanes(a.meta.name, a.meta.schema, a.meta.cluster, a.meta.nrows, a.lanes, a.meta.index)
}

// ---- CVD head chunk ---------------------------------------------------------

func sortedVersionKeys(m map[vgraph.VersionID]int) []vgraph.VersionID {
	out := make([]vgraph.VersionID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (d *dec) recset() *recset.Set {
	if d.err != nil {
		return recset.New()
	}
	s, n, err := recset.DecodeBinary(d.b[d.off:])
	if err != nil {
		d.fail("decoding record set: %v", err)
		return recset.New()
	}
	d.off += n
	return s
}

// encodeCVDHead appends the CVD head chunk: the persisted CVD state, version
// metadata included, minus its data table (the record catalog) and the
// per-version record sets, which chunk separately.
func encodeCVDHead(e *enc, st *cvd.PersistentState) {
	e.u8(chunkCVDHead)
	e.str(st.Name)
	e.uvarint(uint64(cvd.SplitByRlist)) // the model field: the only model that persists
	e.schema(st.Schema)
	e.uvarint(uint64(st.NextVID))
	e.uvarint(uint64(st.NextRID))

	versions := st.Graph.Versions()
	e.uvarint(uint64(len(versions)))
	for _, v := range versions {
		n := st.Graph.Node(v)
		e.uvarint(uint64(n.ID))
		e.varint(n.NumRecords)
		e.varint(int64(n.NumAttrs))
	}
	edges := st.Graph.Edges()
	e.uvarint(uint64(len(edges)))
	for _, ed := range edges {
		e.uvarint(uint64(ed.Parent))
		e.uvarint(uint64(ed.Child))
		e.varint(ed.Weight)
		e.varint(int64(ed.CommonAttrs))
	}

	e.uvarint(uint64(len(st.Metas)))
	for _, m := range st.Metas {
		e.uvarint(uint64(m.ID))
		e.uvarint(uint64(len(m.Parents)))
		for _, p := range m.Parents {
			e.uvarint(uint64(p))
		}
		e.varint(timeNano(m.CheckoutAt))
		e.varint(timeNano(m.CommitAt))
		e.str(m.Message)
		e.str(m.Author)
		e.uvarint(uint64(len(m.Attributes)))
		for _, a := range m.Attributes {
			e.uvarint(uint64(a))
		}
		e.varint(m.NumRecords)
	}

	e.uvarint(uint64(len(st.Attrs)))
	for _, a := range st.Attrs {
		e.uvarint(uint64(a.ID))
		e.str(a.Name)
		e.uvarint(uint64(a.Type))
	}

	e.uvarint(uint64(len(st.Strays)))
	if len(st.Strays) > 0 {
		e.uvarint(uint64(len(st.PartitionOf)))
		for _, v := range sortedVersionKeys(st.PartitionOf) {
			e.uvarint(uint64(v))
			e.uvarint(uint64(st.PartitionOf[v]))
		}
		for _, rs := range st.Strays {
			e.b = rs.AppendBinary(e.b)
		}
	}
}

// decodeCVDHead parses a CVD head chunk. RecordSets stays nil — the
// cvdAssembler fills it from recset-run chunks.
func decodeCVDHead(payload []byte) (*cvd.PersistentState, error) {
	d := &dec{b: payload}
	if k := d.u8(); k != chunkCVDHead {
		return nil, wrongKind(k, "CVD head")
	}
	st := &cvd.PersistentState{Name: d.str()}
	if err := cvd.CheckDurable(st.Name, cvd.ModelKind(d.uvarint())); err != nil {
		return nil, err
	}
	st.Schema = d.schema()
	st.NextVID = vgraph.VersionID(d.uvarint())
	st.NextRID = vgraph.RecordID(d.uvarint())

	g := vgraph.New()
	nver := d.length(2)
	for i := 0; i < nver; i++ {
		id := vgraph.VersionID(d.uvarint())
		numRecords := d.varint()
		numAttrs := int(d.varint())
		if d.err != nil {
			return nil, d.err
		}
		n, err := g.AddVersion(id, numRecords)
		if err != nil {
			return nil, fmt.Errorf("durable: CVD %s: %w", st.Name, err)
		}
		n.NumAttrs = numAttrs
	}
	nedge := d.length(2)
	for i := 0; i < nedge; i++ {
		parent := vgraph.VersionID(d.uvarint())
		child := vgraph.VersionID(d.uvarint())
		weight := d.varint()
		commonAttrs := int(d.varint())
		if d.err != nil {
			return nil, d.err
		}
		if err := g.AddEdgeAttrs(parent, child, weight, commonAttrs); err != nil {
			return nil, fmt.Errorf("durable: CVD %s: %w", st.Name, err)
		}
	}
	st.Graph = g

	nmeta := d.length(2)
	st.Metas = make([]*cvd.VersionMeta, nmeta)
	for i := range st.Metas {
		m := &cvd.VersionMeta{ID: vgraph.VersionID(d.uvarint())}
		nparents := d.length(1)
		m.Parents = make([]vgraph.VersionID, nparents)
		for j := range m.Parents {
			m.Parents[j] = vgraph.VersionID(d.uvarint())
		}
		m.CheckoutAt = nanoTime(d.varint())
		m.CommitAt = nanoTime(d.varint())
		m.Message = d.str()
		m.Author = d.str()
		nattrs := d.length(1)
		m.Attributes = make([]cvd.AttrID, nattrs)
		for j := range m.Attributes {
			m.Attributes[j] = cvd.AttrID(d.uvarint())
		}
		m.NumRecords = d.varint()
		st.Metas[i] = m
	}

	nattr := d.length(2)
	st.Attrs = make([]cvd.Attribute, nattr)
	for i := range st.Attrs {
		st.Attrs[i] = cvd.Attribute{
			ID:   cvd.AttrID(d.uvarint()),
			Name: d.str(),
			Type: d.valueType(),
		}
	}

	if nparts := d.length(1); nparts > 0 {
		nassign := d.length(2)
		st.PartitionOf = make(map[vgraph.VersionID]int, nassign)
		for i := 0; i < nassign; i++ {
			v := vgraph.VersionID(d.uvarint())
			st.PartitionOf[v] = int(d.uvarint())
		}
		st.Strays = make([]*recset.Set, nparts)
		for i := range st.Strays {
			st.Strays[i] = d.recset()
		}
	}

	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("durable: CVD head %s: %d trailing bytes", st.Name, len(d.b)-d.off)
	}
	if err := st.CheckPartitioning(); err != nil {
		return nil, err
	}
	return st, nil
}

// ---- recset runs --------------------------------------------------------------

// Record-set run entry tags: how one version's set is stored.
const (
	recsetFull  uint8 = 0 // the set in the recset codec
	recsetDelta uint8 = 1 // the rids it drops from the union of its parents, then the rids it adds
)

// badVersions is a record-set run entry restore refuses: a delta that does not
// continue its parents' union, or a tag no build writes. It is classed with
// cvd.Restore's versioning-table refusals, so the open fails and fsck reports
// bad-versions in one sentence.
type badVersions struct{ error }

func (badVersions) Is(target error) bool { return target == cvd.ErrBadVersions }

// parentSets returns the sets of version v's parents, the base of its delta
// entry: the parents come from the CVD head's metadata (v's is the one at
// done's length) and their sets from done, the versions before v. A delta
// names only older versions, which restore has rebuilt already.
func parentSets(head *cvd.PersistentState, done []cvd.VersionRecordSet, v vgraph.VersionID) ([]*recset.Set, error) {
	i := len(done)
	if i >= len(head.Metas) || head.Metas[i].ID != v {
		return nil, fmt.Errorf("durable: CVD %s: version %d is stored as a delta, but the CVD head holds no metadata naming its parents", head.Name, v)
	}
	parents := head.Metas[i].Parents
	sets := make([]*recset.Set, len(parents))
	for k, p := range parents {
		if p < 1 || p >= v || int(p) > i {
			return nil, fmt.Errorf("durable: CVD %s: version %d is stored as a delta against parent %d, which is not an older version", head.Name, v, p)
		}
		sets[k] = done[p-1].Set
	}
	return sets, nil
}

// unionOf returns the union of sets; a single set is returned as it is.
func unionOf(sets []*recset.Set) *recset.Set {
	if len(sets) == 1 {
		return sets[0]
	}
	u := recset.New()
	for _, s := range sets {
		u.UnionWith(s)
	}
	return u
}

// encodeRecsetRun appends the run of rows [lo, hi) of st's versioning table.
// Each version is stored as whichever entry encodes smaller: its full set, or
// its delta against the union of its parents — the fact the WAL commit record
// journals, in the WAL's rid-list codec. A root version is always stored in
// full. The choice depends only on committed, immutable sets, so a full run
// always encodes to the same bytes.
func encodeRecsetRun(e *enc, st *cvd.PersistentState, lo, hi int) {
	e.u8(chunkRecsetRun)
	e.uvarint(uint64(hi - lo))
	var delta enc
	for i := lo; i < hi; i++ {
		vs := st.RecordSets[i]
		e.uvarint(uint64(vs.Version))
		at := len(e.b)
		e.u8(recsetFull)
		e.b = vs.Set.AppendBinary(e.b)
		parents, err := parentSets(st, st.RecordSets[:i], vs.Version)
		if err != nil || len(parents) == 0 {
			continue
		}
		u := unionOf(parents)
		delta.b = append(delta.b[:0], recsetDelta)
		delta.ridGaps(recset.AndNot(u, vs.Set).Slice())
		delta.ridGaps(recset.AndNot(vs.Set, u).Slice())
		if len(delta.b) < len(e.b)-at {
			e.b = append(e.b[:at], delta.b...)
		}
	}
}

// decodeRecsetRun appends the run's record sets to dst, which holds the sets
// of every version before the run: a delta entry is rebuilt as a clone of the
// union of its parents (named by head, the CVD's decoded head), minus the
// rids it drops, plus the rids it adds. An entry that does not continue its
// parents' union is refused as badVersions.
func decodeRecsetRun(dst []cvd.VersionRecordSet, payload []byte, head *cvd.PersistentState) ([]cvd.VersionRecordSet, error) {
	d := &dec{b: payload}
	if k := d.u8(); k != chunkRecsetRun {
		return nil, wrongKind(k, "record-set run")
	}
	n := d.length(2)
	for i := 0; i < n; i++ {
		v := vgraph.VersionID(d.uvarint())
		var s *recset.Set
		switch tag := d.u8(); {
		case d.err != nil:
		case tag == recsetFull:
			s = d.recset()
		case tag == recsetDelta:
			dropped, added := d.ridGaps(), d.ridGaps()
			if d.err != nil {
				break
			}
			var err error
			if s, err = applyDelta(head, dst, v, dropped, added); err != nil {
				return nil, err
			}
		default:
			return nil, badVersions{fmt.Errorf("durable: CVD %s: version %d is stored under record-set entry tag %d; want %d (its full set) or %d (its delta)", head.Name, v, tag, recsetFull, recsetDelta)}
		}
		if d.err != nil {
			return nil, d.err
		}
		dst = append(dst, cvd.VersionRecordSet{Version: v, Set: s})
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("durable: record-set run: %d trailing bytes", len(payload)-d.off)
	}
	return dst, nil
}

// applyDelta rebuilds version v's set from its delta entry by set algebra, in
// time linear in the sets: each list must ascend strictly from rid 1, as the
// writer's do; every dropped rid must be in the union of its parents, and no
// added rid may be. That every rid is one handed out is cvd.Restore's check,
// made on the rebuilt set as on a full one.
func applyDelta(head *cvd.PersistentState, done []cvd.VersionRecordSet, v vgraph.VersionID, dropped, added []int64) (*recset.Set, error) {
	for _, rids := range [][]int64{dropped, added} {
		for k, rid := range rids {
			if rid < 1 || k > 0 && rid <= rids[k-1] {
				return nil, badVersions{fmt.Errorf("durable: CVD %s: version %d's delta lists record %d out of order; its rids must ascend from 1", head.Name, v, rid)}
			}
		}
	}
	parents, err := parentSets(head, done, v)
	if err != nil {
		return nil, badVersions{err}
	}
	u := unionOf(parents)
	d, a := recset.FromSorted(dropped), recset.FromSorted(added)
	if stray := recset.AndNot(d, u); !stray.IsEmpty() {
		rid, _ := stray.Min()
		return nil, badVersions{fmt.Errorf("durable: CVD %s: version %d drops record %d, which its parents do not hold", head.Name, v, rid)}
	}
	if held := recset.And(a, u); !held.IsEmpty() {
		rid, _ := held.Min()
		return nil, badVersions{fmt.Errorf("durable: CVD %s: version %d adds record %d, which its parents already hold", head.Name, v, rid)}
	}
	s := recset.AndNot(u, d)
	s.UnionWith(a)
	return s, nil
}

// cvdLayout is the per-CVD section geometry in manifests: how many record sets
// the run chunks must reassemble.
type cvdLayout struct {
	name   string
	sets   int // version record-set count
	runLen int // record sets per run chunk
}

func (e *enc) cvdLayout(l *cvdLayout) {
	e.str(l.name)
	e.uvarint(uint64(l.sets))
	e.uvarint(uint64(l.runLen))
}

func (d *dec) cvdLayout() cvdLayout {
	var l cvdLayout
	l.name = d.str()
	sets := d.uvarint()
	runLen := d.uvarint()
	if d.err != nil {
		return l
	}
	if sets > 1<<40 {
		d.fail("CVD %s: implausible layout count (%d sets)", l.name, sets)
		return l
	}
	if runLen == 0 || runLen > maxBandRows {
		d.fail("CVD %s: implausible run length %d", l.name, runLen)
		return l
	}
	l.sets = int(sets)
	l.runLen = int(runLen)
	return l
}

// layoutForCVD captures a CVD state's chunk geometry.
func layoutForCVD(st *cvd.PersistentState) cvdLayout {
	return cvdLayout{name: st.Name, sets: len(st.RecordSets), runLen: defaultRecsetRun}
}
