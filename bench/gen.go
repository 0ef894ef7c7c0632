package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"
	"sort"

	"repro/internal/relstore"
)

// The generator and the oracle are the benchmark's own: nothing here imports
// the repo's harness packages, so a change to those cannot change what is
// measured or what counts as a correct answer.

const (
	numCols    = 20      // key + a01..a19: the paper's all-integer record
	recordSize = 160     // user bytes per record: numCols × 8
	attrRange  = 1000000 // attribute values are uniform in [0, attrRange)
	selectCol  = "a01"
)

// record is one immutable row image; an update makes a new record with the
// same key.
type record [numCols]int64

func (r *record) key() int64 { return r[0] }

// histConfig shapes a seeded SCI-style history: a mainline plus branches that
// fork from random earlier versions, no merges.
type histConfig struct {
	records     int // target distinct records |R|
	branches    int
	perBranch   int
	mods        int // |I|: modifications per derived version
	updateShare float64
	deleteShare float64
}

// version is the oracle's view of one version: its parent and the record
// indices (into history.recs) it holds, sorted by key.
type version struct {
	parent int // index into history.versions; -1 for the root
	rows   []int32
}

// history is the generated dataset and, at the same time, the oracle: version
// → sorted rows, nothing else. Engine version ids are index+1 because the
// loader commits versions in index order.
type history struct {
	recs     []record
	versions []version
	nextKey  int64
}

func schema() relstore.Schema {
	cols := make([]relstore.Column, numCols)
	cols[0] = relstore.Column{Name: "key", Type: relstore.TypeInt}
	for i := 1; i < numCols; i++ {
		cols[i] = relstore.Column{Name: attrName(i), Type: relstore.TypeInt}
	}
	return relstore.MustSchema(cols, "key")
}

func attrName(i int) string {
	return "a" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// newRecord appends a record with the given key and fresh random attributes.
func (h *history) newRecord(rng *rand.Rand, key int64) int32 {
	var r record
	r[0] = key
	for i := 1; i < numCols; i++ {
		r[i] = rng.Int63n(attrRange)
	}
	h.recs = append(h.recs, r)
	return int32(len(h.recs) - 1)
}

func (h *history) freshKey() int64 {
	h.nextKey++
	return h.nextKey
}

// shapeSeed fixes where branches fork. The partitioner's result, and with it
// checkout cost, depends on the shape of the version tree, so the shape is a
// parameter of the benchmark like the sizes are; the seed decides every
// record's content and which rows each version modifies.
const shapeSeed = 20

// generate builds the history for a seed; the same seed gives the same
// history.
func generate(seed int64, cfg histConfig) *history {
	rng := rand.New(rand.NewSource(seed))
	shape := rand.New(rand.NewSource(shapeSeed))
	h := &history{}
	total := cfg.branches * cfg.perBranch
	grown := int(float64(total-1) * float64(cfg.mods) * (1 - cfg.deleteShare))
	initial := cfg.records - grown
	if initial < cfg.mods {
		initial = cfg.mods
	}
	root := make([]int32, initial)
	for i := range root {
		root[i] = h.newRecord(rng, h.freshKey())
	}
	h.versions = append(h.versions, version{parent: -1, rows: root})

	derive := func(parent int) int {
		rows := append([]int32(nil), h.versions[parent].rows...)
		for i := 0; i < cfg.mods; i++ {
			p := rng.Float64()
			switch {
			case p < cfg.deleteShare && len(rows) > 1:
				j := rng.Intn(len(rows))
				rows[j] = rows[len(rows)-1]
				rows = rows[:len(rows)-1]
			case p < cfg.deleteShare+cfg.updateShare:
				j := rng.Intn(len(rows))
				rows[j] = h.newRecord(rng, h.recs[rows[j]].key())
			default:
				rows = append(rows, h.newRecord(rng, h.freshKey()))
			}
		}
		h.sortByKey(rows)
		h.versions = append(h.versions, version{parent: parent, rows: rows})
		return len(h.versions) - 1
	}

	branches := make([][]int, 0, cfg.branches)
	mainline := []int{0}
	for i := 1; i < cfg.perBranch; i++ {
		mainline = append(mainline, derive(mainline[len(mainline)-1]))
	}
	branches = append(branches, mainline)
	for b := 1; b < cfg.branches; b++ {
		src := branches[shape.Intn(len(branches))]
		br := []int{derive(src[shape.Intn(len(src))])}
		for i := 1; i < cfg.perBranch; i++ {
			br = append(br, derive(br[len(br)-1]))
		}
		branches = append(branches, br)
	}
	return h
}

func (h *history) sortByKey(rows []int32) {
	sort.Slice(rows, func(a, b int) bool { return h.recs[rows[a]].key() < h.recs[rows[b]].key() })
}

// fingerprint hashes every version's parent and rows; the smoke test uses it
// to show that the dataset depends on the seed and on nothing else.
func (h *history) fingerprint() uint64 {
	f := fnv.New64a()
	for _, v := range h.versions {
		hashInts(f, int64(v.parent))
		for _, ri := range v.rows {
			hashInts(f, h.recs[ri][:]...)
		}
	}
	return f.Sum64()
}

// hashInts feeds integers to a hash, eight little-endian bytes each.
func hashInts(f hash.Hash64, xs ...int64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		f.Write(buf[:])
	}
}

// rows returns the oracle's answer for a checkout of version v: its records,
// sorted by key.
func (h *history) rows(v int) []record {
	out := make([]record, len(h.versions[v].rows))
	for i, ri := range h.versions[v].rows {
		out[i] = h.recs[ri]
	}
	return out
}

// userBytes is the size of the distinct records as the user supplied them.
func (h *history) userBytes() int64 { return int64(len(h.recs)) * recordSize }

// selectCount is the naive evaluator for `a01 > bound LIMIT limit` on one
// version: how many rows a correct engine returns.
func (h *history) selectCount(v int, bound int64, limit int) int {
	n := 0
	for _, ri := range h.versions[v].rows {
		if h.recs[ri][1] > bound {
			n++
		}
	}
	if limit > 0 && n > limit {
		n = limit
	}
	return n
}

// rowCache turns records into engine rows once; the loader shares them
// between the commits of a set-up and drops them afterwards.
type rowCache struct {
	h    *history
	rows []relstore.Row
}

func (c *rowCache) row(ri int32) relstore.Row {
	if int(ri) >= len(c.rows) {
		c.rows = append(c.rows, make([]relstore.Row, len(c.h.recs)-len(c.rows))...)
	}
	if c.rows[ri] == nil {
		c.rows[ri] = toRow(&c.h.recs[ri])
	}
	return c.rows[ri]
}

func (c *rowCache) version(v int) []relstore.Row {
	out := make([]relstore.Row, len(c.h.versions[v].rows))
	for i, ri := range c.h.versions[v].rows {
		out[i] = c.row(ri)
	}
	return out
}

func toRow(r *record) relstore.Row {
	row := make(relstore.Row, numCols)
	for i, x := range r {
		row[i] = relstore.Int(x)
	}
	return row
}
