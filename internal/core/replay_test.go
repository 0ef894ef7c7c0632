package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cvd"
	"repro/internal/durable"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// replayHistory drives one CVD of an engine through a seeded history that
// covers every shape a journalled delta can take: row churn staged in shuffled
// order, schema evolution (a new column, a generalized type, integer arrays in
// an integer column that becomes a decimal one), a two-parent
// merge, a commit identical to its parent (empty delta), a full replacement,
// and — without a primary key — duplicate-content rows.
type replayHistory struct {
	t      *testing.T
	rng    *rand.Rand
	e      *Engine
	c      *cvd.CVD
	name   string
	model  cvd.ModelKind
	withPK bool
	key    int64

	journal *memJournal    // when set, receives the CVD's history (in-memory models)
	ckpts   []<-chan error // background checkpoints started by the history
}

func (h *replayHistory) schemaOf(cols []relstore.Column) relstore.Schema {
	if h.withPK {
		return relstore.MustSchema(cols, "k")
	}
	return relstore.MustSchema(cols)
}

func (h *replayHistory) newRows(s relstore.Schema, n int) []relstore.Row {
	rows := make([]relstore.Row, n)
	for i := range rows {
		h.key++
		row := relstore.Row{relstore.Int(h.key)}
		for _, col := range s.Columns[1:] {
			row = append(row, randomValue(h.rng, col.Type))
		}
		rows[i] = row
	}
	return rows
}

// rowsOf returns a version's rows without the rid, padded to width.
func (h *replayHistory) rowsOf(v vgraph.VersionID, width int) []relstore.Row {
	return padRows(checkoutRows(h.t, h.e, h.name, v, "hist"), width)
}

func (h *replayHistory) commit(kind string, parents []vgraph.VersionID, rows []relstore.Row, s relstore.Schema) {
	h.t.Helper()
	h.rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	if _, err := h.c.Commit(parents, rows, s, kind, "prop"); err != nil {
		h.t.Fatalf("%s commit on %v: %v", kind, parents, err)
	}
}

func (h *replayHistory) step(kind string) {
	switch kind {
	case "optimize":
		if _, err := h.e.Optimize(h.name, 1.5); err != nil {
			h.t.Fatalf("optimize: %v", err)
		}
		return
	case "checkpoint":
		done, err := h.e.CheckpointAsync()
		if err != nil {
			h.t.Fatalf("checkpoint: %v", err)
		}
		h.ckpts = append(h.ckpts, done)
		return
	}
	versions := h.c.Versions()
	h.rng.Shuffle(len(versions), func(i, j int) { versions[i], versions[j] = versions[j], versions[i] })
	parent := versions[0]
	if kind == "merge" && len(versions) == 1 {
		kind = "churn"
	}
	s := h.c.Schema()
	width := len(s.Columns)
	switch kind {
	case "churn":
		rows := h.rowsOf(parent, width)
		keep := rows[:0]
		for _, r := range rows {
			switch h.rng.Intn(4) {
			case 0: // dropped
			case 1: // updated in place: same key, new content
				r = r.Clone()
				r[1] = randomValue(h.rng, s.Columns[1].Type)
				keep = append(keep, r)
			default:
				keep = append(keep, r)
			}
		}
		h.commit(kind, []vgraph.VersionID{parent}, append(keep, h.newRows(s, 1+h.rng.Intn(6))...), s)
	case "add-column":
		cols := append(append([]relstore.Column(nil), s.Columns...), relstore.Column{
			Name: fmt.Sprintf("e%d", len(versions)), Type: colTypes[h.rng.Intn(len(colTypes))]})
		evolved := h.schemaOf(cols)
		rows := h.rowsOf(parent, len(cols))
		h.commit(kind, []vgraph.VersionID{parent}, append(rows, h.newRows(evolved, 3)...), evolved)
	case "generalize":
		cols := append([]relstore.Column(nil), s.Columns...)
		cols[1+h.rng.Intn(len(cols)-1)].Type = relstore.TypeString
		evolved := h.schemaOf(cols)
		h.commit(kind, []vgraph.VersionID{parent}, append(h.rowsOf(parent, width), h.newRows(evolved, 3)...), evolved)
	case "merge":
		other := versions[1]
		rows := h.rowsOf(parent, width)
		seen := make(map[string]bool, len(rows))
		for _, r := range rows {
			seen[r[0].AsString()] = true
		}
		for _, r := range h.rowsOf(other, width) {
			if !seen[r[0].AsString()] {
				seen[r[0].AsString()] = true
				rows = append(rows, r)
			}
		}
		h.commit(kind, []vgraph.VersionID{parent, other}, append(rows, h.newRows(s, 2)...), s)
	case "evolve-array":
		// Integer arrays in a new integer column, then the column declared
		// decimal: the evolution casts no array, so both versions keep them.
		cols := append(append([]relstore.Column(nil), s.Columns...), relstore.Column{Name: fmt.Sprintf("n%d", len(versions)), Type: relstore.TypeInt})
		withInts := h.schemaOf(cols)
		fresh := h.newRows(withInts, 3)
		fresh[0][len(cols)-1] = relstore.IntArray([]int64{})
		fresh[1][len(cols)-1] = relstore.IntArray([]int64{3, 1})
		h.commit(kind, []vgraph.VersionID{parent}, append(h.rowsOf(parent, len(cols)), fresh...), withInts)
		cols[len(cols)-1].Type = relstore.TypeFloat
		latest := vgraph.VersionID(h.c.NumVersions())
		before := h.rowsOf(latest, len(cols))
		h.commit(kind, []vgraph.VersionID{latest}, slices.Clone(before), h.schemaOf(cols))
		if after := h.rowsOf(latest, len(cols)); !sameCells(before, after, len(cols)-1) {
			h.t.Fatalf("declaring %s decimal rewrote version %d's arrays: %v, then %v", cols[len(cols)-1].Name, latest, before, after)
		}
	case "identical":
		h.commit(kind, []vgraph.VersionID{parent}, h.rowsOf(parent, width), s)
	case "replace":
		h.commit(kind, []vgraph.VersionID{parent}, h.newRows(s, 4+h.rng.Intn(8)), s)
	case "duplicates":
		rows := h.rowsOf(parent, width)
		fresh := h.newRows(s, 2)
		rows = append(rows, rows[0].Clone(), fresh[0], fresh[0].Clone(), fresh[1])
		h.commit(kind, []vgraph.VersionID{parent}, rows, s)
	}
}

// sameCells reports whether two versions' rows, in any order, hold Identical
// integer arrays in column j for the same keys.
func sameCells(a, b []relstore.Row, j int) bool {
	arrays := func(rows []relstore.Row) map[int64]relstore.Value {
		out := make(map[int64]relstore.Value)
		for _, r := range rows {
			if r[j].Type == relstore.TypeIntArray {
				out[r[0].AsInt()] = r[j]
			}
		}
		return out
	}
	x, y := arrays(a), arrays(b)
	if len(x) != len(y) {
		return false
	}
	for k, v := range x {
		if w, ok := y[k]; !ok || !v.Identical(w) {
			return false
		}
	}
	return true
}

// run creates the CVD and commits its history. Each extra step ("optimize",
// "checkpoint") lands between two commits at a random place; run returns once
// every background checkpoint has completed.
func (h *replayHistory) run(extra ...string) {
	cols := []relstore.Column{{Name: "k", Type: relstore.TypeInt}}
	for i := 1; i < 3+h.rng.Intn(3); i++ {
		cols = append(cols, relstore.Column{Name: fmt.Sprintf("c%d", i), Type: colTypes[h.rng.Intn(len(colTypes))]})
	}
	schema := h.schemaOf(cols)
	c, err := h.e.Init(h.name, schema, h.newRows(schema, 5+h.rng.Intn(20)), cvd.Options{Model: h.model, Author: "prop", Message: "v1"})
	if err != nil {
		h.t.Fatalf("init: %v", err)
	}
	h.c = c
	if h.journal != nil {
		h.journal.begin(c)
	}
	kinds := []string{"churn", "add-column", "generalize", "evolve-array", "merge", "identical", "replace", "churn", "merge"}
	if !h.withPK {
		kinds = append(kinds, "duplicates")
	}
	h.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for _, kind := range extra {
		kinds = slices.Insert(kinds, 1+h.rng.Intn(len(kinds)-1), kind)
	}
	for _, kind := range kinds {
		h.step(kind)
	}
	for _, done := range h.ckpts {
		if err := <-done; err != nil {
			h.t.Fatalf("background checkpoint: %v", err)
		}
	}
}

// throughDisk runs the history on a durable engine — partitioned by Optimize
// and checkpointed in the background mid-history, with commits after both —
// and reopens its directory: the newest manifest plus the WAL tail after it.
func (h *replayHistory) throughDisk() (live, replayed *Engine) {
	dir := h.t.TempDir()
	live, err := OpenDurable("live", dir)
	if err != nil {
		h.t.Fatal(err)
	}
	h.e = live
	h.run("optimize", "checkpoint")
	if err := live.Close(); err != nil {
		h.t.Fatal(err)
	}
	epochs, err := durable.ListEpochs(dir)
	if err != nil || len(epochs) == 0 {
		h.t.Fatalf("no checkpoint ran (%v, %v)", epochs, err)
	}
	if tail, err := os.Stat(filepath.Join(dir, durable.WALSegmentFileName(epochs[len(epochs)-1]))); err != nil || tail.Size() <= walHeaderBytes {
		h.t.Fatalf("no WAL after the newest checkpoint (%v): the reopen would be the manifest alone", err)
	}
	replayed, err = OpenDurable("replayed", dir)
	if err != nil {
		h.t.Fatalf("reopening: %v", err)
	}
	return live, replayed
}

// inMemory runs the history of an in-memory model on an ephemeral engine and
// rebuilds the CVD from its journal alone into another one.
func (h *replayHistory) inMemory() (live, replayed *Engine) {
	live = Open("live")
	h.e = live
	h.journal = &memJournal{}
	h.run()
	first, _ := h.c.Meta(1)
	in := h.journal.init
	replayed = Open("replayed")
	c, err := cvd.ReplayInit(replayed.Database(), h.name, in.versions, in.delta, in.schema,
		cvd.Options{Model: h.model, Author: first.Author, Message: first.Message, At: first.CommitAt})
	if err != nil {
		h.t.Fatalf("replaying the first version: %v", err)
	}
	for i, jc := range h.journal.commits {
		if err := c.ReplayCommit(jc.versions, jc.delta, jc.schema, jc.msg, jc.author, jc.at); err != nil {
			h.t.Fatalf("replaying commit %d: %v", i, err)
		}
	}
	if err := replayed.Adopt(c); err != nil {
		h.t.Fatal(err)
	}
	return live, replayed
}

// memJournal keeps a CVD's journalled history in memory, as the WAL keeps a
// durable one's: its first version's delta and every commit's.
type memJournal struct {
	init    journalled
	commits []journalled
}

type journalled struct {
	versions    []vgraph.VersionID
	delta       []relstore.Row
	schema      relstore.Schema
	msg, author string
	at          time.Time
}

// begin records c's first version and attaches the journal for the rest.
func (j *memJournal) begin(c *cvd.CVD) {
	j.init.versions, j.init.delta, j.init.schema = c.InitDelta()
	c.SetJournal(j)
}

func (j *memJournal) LogCommit(_ string, versions []vgraph.VersionID, delta []relstore.Row, schema relstore.Schema, msg, author string, at time.Time) error {
	j.commits = append(j.commits, journalled{append([]vgraph.VersionID(nil), versions...), delta, schema, msg, author, at})
	return nil
}

// TestLiveEqualsReplayed is the property behind the delta WAL record: an
// engine rebuilt from the journalled deltas is bit-identical to the live one —
// every version, record order inside a version and partition included — and
// stays in lockstep with it afterwards (same rids for the next commit). A
// split-by-rlist CVD goes through the disk, partitioned and checkpointed
// mid-history (throughDisk); the in-memory models replay their journal in
// memory.
func TestLiveEqualsReplayed(t *testing.T) {
	models := []cvd.ModelKind{cvd.SplitByRlist, cvd.SplitByVlist, cvd.CombinedTable, cvd.TablePerVersion, cvd.DeltaBased}
	for _, model := range models {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", model, seed), func(t *testing.T) {
				h := &replayHistory{t: t, rng: rand.New(rand.NewSource(seed)), name: "d", model: model, withPK: seed%2 == 1}
				var live, replayed *Engine
				if model == cvd.SplitByRlist {
					live, replayed = h.throughDisk()
				} else {
					live, replayed = h.inMemory()
				}
				defer replayed.Close()
				enginesEquivalent(t, "replayed", live, replayed)
				lockstep(t, "d", live, replayed)
			})
		}
	}
}

// TestRejectedCommitKeepsLogReplayable: a commit refused halfway through its
// rows (two well-formed, then one too short) must not take record ids with it.
// The commit acknowledged after it is journalled, and the directory — never
// checkpointed, so the reopen is replay alone — must open to the live state
// and pass the scrub.
func TestRejectedCommitKeepsLogReplayable(t *testing.T) {
	schema := relstore.MustSchema([]relstore.Column{
		{Name: "id", Type: relstore.TypeInt},
		{Name: "payload", Type: relstore.TypeString},
	}, "id")
	dir := t.TempDir()
	live, err := OpenDurable("live", dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := live.Init("d", schema, []relstore.Row{{relstore.Int(1), relstore.Str("a")}}, cvd.Options{Author: "t", Message: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	bad := []relstore.Row{{relstore.Int(1), relstore.Str("a")}, {relstore.Int(2), relstore.Str("b")}, {relstore.Int(3)}}
	if _, err := c.Commit([]vgraph.VersionID{1}, bad, schema, "rejected", "t"); err == nil {
		t.Fatal("a commit with a short row was accepted")
	}
	good := []relstore.Row{{relstore.Int(1), relstore.Str("a")}, {relstore.Int(4), relstore.Str("d")}}
	if _, err := c.Commit([]vgraph.VersionID{1}, good, schema, "v2", "t"); err != nil {
		t.Fatal(err)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	if rep, err := durable.Scrub(dir, durable.ScrubOptions{}); err != nil || !rep.Healthy() {
		t.Fatalf("scrub of a legitimate log: %v, %+v", err, rep)
	}
	replayed, err := OpenDurable("replayed", dir)
	if err != nil {
		t.Fatalf("replaying the WAL: %v", err)
	}
	defer replayed.Close()
	enginesEquivalent(t, "replayed", live, replayed)
}

// TestScrubTornWALHeader: a crash inside a checkpoint can leave the new active
// segment shorter than its header. The open writes the header afresh, so fsck
// reports crash debris and its repair writes the same header: afterwards the
// directory scrubs clean and opens with every version.
func TestScrubTornWALHeader(t *testing.T) {
	dir := t.TempDir()
	live, err := OpenDurable("live", dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := live.Init("d", sweepSchema(), sweepRows(3, 2), cvd.Options{Author: "t", Message: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	for v := 2; v <= 4; v++ {
		if _, err := c.Commit([]vgraph.VersionID{vgraph.VersionID(v - 1)}, sweepRows(3, v+1), sweepSchema(), fmt.Sprintf("v%d", v), "t"); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	segments, err := filepath.Glob(filepath.Join(dir, "wal-*.orph"))
	if err != nil || len(segments) == 0 {
		t.Fatalf("no WAL segment: %v", err)
	}
	if err := os.WriteFile(segments[len(segments)-1], []byte("ORPHW"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := durable.Scrub(dir, durable.ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || rep.Issues[0].Kind != durable.IssueTornWALTail {
		t.Fatalf("scrub of a torn WAL header: %+v, want one %s", rep.Issues, durable.IssueTornWALTail)
	}
	if rep, err = durable.Scrub(dir, durable.ScrubOptions{Repair: true}); err != nil || rep.Unrepaired() != 0 {
		t.Fatalf("repair of a torn WAL header: %v, %+v", err, rep.Issues)
	}
	if rep, err = durable.Scrub(dir, durable.ScrubOptions{}); err != nil || !rep.Healthy() {
		t.Fatalf("scrub after the repair: %v, %+v", err, rep.Issues)
	}
	recovered, err := OpenDurable("recovered", dir)
	if err != nil {
		t.Fatalf("opening the repaired directory: %v", err)
	}
	defer recovered.Close()
	enginesEquivalent(t, "recovered", live, recovered)
}

// walHeaderBytes is the length of a WAL segment's header.
const walHeaderBytes = 20

// walFrames splits a WAL segment into its header and its record frames.
func walFrames(t *testing.T, raw []byte) (header []byte, frames [][]byte) {
	t.Helper()
	header, raw = raw[:walHeaderBytes], raw[walHeaderBytes:]
	for len(raw) > 0 {
		n := 8 + int(binary.LittleEndian.Uint32(raw[:4]))
		frames = append(frames, raw[:n])
		raw = raw[n:]
	}
	return header, frames
}

// TestReplayRefusesDiscontinuousLog: a WAL that does not continue the state
// it is replayed onto — a commit record missing from the middle, a record
// naming a parent that does not exist, a record whose added rids do not start
// at the next rid or skip one after it, a tombstone for a record the parents
// do not hold, a schema that is not the current one evolved — must fail the
// open with an error naming the segment and the record, never open as a
// renumbered history; and the offline scrub behind `orpheus fsck` must report
// the same record as corrupt-wal-record, in the open's sentence.
func TestReplayRefusesDiscontinuousLog(t *testing.T) {
	schema := relstore.MustSchema([]relstore.Column{
		{Name: "id", Type: relstore.TypeInt},
		{Name: "payload", Type: relstore.TypeString},
	}, "id")
	deltaSchema := relstore.MustSchema(append([]relstore.Column{{Name: "rid", Type: relstore.TypeInt}}, schema.Columns...), "id")
	// build writes init + three single-parent commits (versions 1..4, records
	// 1..5) and returns the directory, closed, never checkpointed.
	build := func(t *testing.T) string {
		dir := t.TempDir()
		e, err := OpenDurable("teeth", dir)
		if err != nil {
			t.Fatal(err)
		}
		rows := []relstore.Row{{relstore.Int(1), relstore.Str("a")}, {relstore.Int(2), relstore.Str("b")}}
		c, err := e.Init("d", schema, rows, cvd.Options{Author: "teeth", Message: "v1"})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 3; i++ {
			rows = append(rows, relstore.Row{relstore.Int(int64(10 + i)), relstore.Str(fmt.Sprintf("p%d", i))})
			if _, err := c.Commit([]vgraph.VersionID{vgraph.VersionID(i)}, rows, schema, fmt.Sprintf("v%d", i+1), "teeth"); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	// forge appends one CRC-valid commit record straight through the store.
	forge := func(t *testing.T, dir string, versions []vgraph.VersionID, delta []relstore.Row, deltaSchema relstore.Schema) {
		s, _, err := durable.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.LogCommit("d", versions, delta, deltaSchema, "forged", "teeth", time.Unix(0, 7)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name    string
		damage  func(t *testing.T, dir string)
		record  int    // index of the record that must be refused
		mention string // what the error must say about it
	}{
		{"missing-middle-record", func(t *testing.T, dir string) {
			path := filepath.Join(dir, durable.WALSegmentFileName(0))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			header, frames := walFrames(t, raw)
			if len(frames) != 4 {
				t.Fatalf("fixture has %d records, want 4", len(frames))
			}
			out := append([]byte(nil), header...)
			for i, f := range frames {
				if i != 2 { // drop the commit of version 3
					out = append(out, f...)
				}
			}
			if err := os.WriteFile(path, out, 0o644); err != nil {
				t.Fatal(err)
			}
		}, 2, "version 4 does not continue the history (next version is 3)"},
		{"unknown-parent", func(t *testing.T, dir string) {
			forge(t, dir, []vgraph.VersionID{5, 99}, []relstore.Row{{relstore.Int(6), relstore.Int(50), relstore.Str("x")}}, deltaSchema)
		}, 4, "unknown parent version 99"},
		{"rid-gap", func(t *testing.T, dir string) {
			forge(t, dir, []vgraph.VersionID{5, 4}, []relstore.Row{{relstore.Int(9), relstore.Int(50), relstore.Str("x")}}, deltaSchema)
		}, 4, "adds record 9 where the next record id is 6"},
		{"tombstone-not-held", func(t *testing.T, dir string) {
			forge(t, dir, []vgraph.VersionID{5, 1}, []relstore.Row{{relstore.Int(99)}}, deltaSchema)
		}, 4, "drops record 99, which its parents do not hold"},
		{"second-rid-gap", func(t *testing.T, dir string) {
			forge(t, dir, []vgraph.VersionID{5, 4}, []relstore.Row{
				{relstore.Int(6), relstore.Int(50), relstore.Str("x")},
				{relstore.Int(8), relstore.Int(51), relstore.Str("y")},
			}, deltaSchema)
		}, 4, "adds record 8 where the next record id is 7"},
		{"schema-not-evolved", func(t *testing.T, dir string) {
			narrowed := relstore.MustSchema(deltaSchema.Columns[:2], "id")
			forge(t, dir, []vgraph.VersionID{5, 4}, []relstore.Row{{relstore.Int(6), relstore.Int(50)}}, narrowed)
		}, 4, "has schema (id integer, PRIMARY KEY(id)), which is not the current schema (id integer, payload string, PRIMARY KEY(id)) evolved"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := build(t)
			tc.damage(t, dir)
			where := fmt.Sprintf("record %d", tc.record)

			rep, err := durable.Scrub(dir, durable.ScrubOptions{})
			if err != nil {
				t.Fatal(err)
			}

			e, err := OpenDurable("teeth", dir)
			if err == nil {
				c, _ := e.CVD("d")
				t.Fatalf("a discontinuous log opened, with versions %v", c.Versions())
			}
			for _, want := range []string{durable.WALSegmentFileName(0), where, tc.mention} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("open error does not mention %q: %v", want, err)
				}
			}
			if len(rep.Issues) != 1 || rep.Issues[0].Kind != durable.IssueCorruptWALRecord || rep.Issues[0].Detail != err.Error() {
				t.Fatalf("scrub reports %+v, want one %s saying %q", rep.Issues, durable.IssueCorruptWALRecord, err)
			}
		})
	}
}
