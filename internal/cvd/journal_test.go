package cvd

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// journaledCommit is one captured LogCommit call — everything needed to
// replay the commit through ReplayCommit, the way WAL recovery does.
type journaledCommit struct {
	versions []vgraph.VersionID
	delta    []relstore.Row
	schema   relstore.Schema
	msg      string
	author   string
	at       time.Time
}

// flakyJournal records every successful append and fails the ones whose
// index is armed, simulating a WAL whose disk rejected an append.
type flakyJournal struct {
	log      []journaledCommit
	failNext bool
}

func (j *flakyJournal) LogCommit(_ string, versions []vgraph.VersionID, delta []relstore.Row, schema relstore.Schema, msg, author string, at time.Time) error {
	if j.failNext {
		j.failNext = false
		return errors.New("injected journal failure")
	}
	j.log = append(j.log, journaledCommit{
		versions: append([]vgraph.VersionID(nil), versions...),
		delta:    delta, schema: schema, msg: msg, author: author, at: at,
	})
	return nil
}

// TestJournalPoisonedAfterAppendFailure: once a commit is applied in memory
// but its journal append fails, the CVD holds a version the log lacks. Later
// commits must fail fast (poisoned journal) instead of journaling records
// that replay against the missing version — and the captured log must stay
// replayable: replaying it yields exactly the versions whose appends
// succeeded.
func TestJournalPoisonedAfterAppendFailure(t *testing.T) {
	db, c := buildProteinCVD(t, SplitByRlist)
	j := &flakyJournal{}
	c.SetJournal(j)

	// A journaled commit that succeeds end to end.
	v5rows := []relstore.Row{prow("ENSP000001", "ENSP000002", 1, 2, 3)}
	v5, err := c.Commit([]vgraph.VersionID{4}, v5rows, proteinSchema(), "journaled", "alice")
	if err != nil {
		t.Fatalf("journaled commit: %v", err)
	}
	if len(j.log) != 1 {
		t.Fatalf("journal captured %d commits, want 1", len(j.log))
	}

	// The divergence: applied in memory, lost by the journal.
	j.failNext = true
	lostRows := []relstore.Row{prow("ENSP000003", "ENSP000004", 4, 5, 6)}
	lost, err := c.Commit([]vgraph.VersionID{v5}, lostRows, proteinSchema(), "lost", "bob")
	if err == nil {
		t.Fatal("commit with failing journal reported success")
	}
	if lost == 0 {
		t.Fatal("partial success must return the in-memory version id")
	}
	if c.JournalErr() == nil {
		t.Fatal("journal not poisoned after append failure")
	}
	versionsAfterLoss := c.NumVersions()

	// Later commits must fail fast, BEFORE touching in-memory state.
	_, err = c.Commit([]vgraph.VersionID{lost}, v5rows, proteinSchema(), "rejected", "carol")
	if err == nil {
		t.Fatal("commit against a poisoned journal succeeded")
	}
	if !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("poison error not surfaced: %v", err)
	}
	if got := c.NumVersions(); got != versionsAfterLoss {
		t.Fatalf("rejected commit mutated state: %d versions, want %d", got, versionsAfterLoss)
	}
	if got := len(j.log); got != 1 {
		t.Fatalf("poisoned journal still received %d appends, want 1", got)
	}

	// Replayability pin: a fresh CVD built from the same history plus the
	// captured journal reproduces every journaled version without error —
	// the log contains no record referencing the lost version.
	_, fresh := buildProteinCVD(t, SplitByRlist)
	for i, jc := range j.log {
		if err := fresh.ReplayCommit(jc.versions, jc.delta, jc.schema, jc.msg, jc.author, jc.at); err != nil {
			t.Fatalf("replaying journaled commit %d: %v", i, err)
		}
	}
	if got, want := fresh.NumVersions(), 5; got != want {
		t.Fatalf("replay produced %d versions, want %d", got, want)
	}
	_ = db

	// Re-attaching the journal (the checkpoint path, after the diverged state
	// is folded into a snapshot) clears the poison.
	c.SetJournal(j)
	if c.JournalErr() != nil {
		t.Fatal("SetJournal did not clear the poison")
	}
	if _, err := c.Commit([]vgraph.VersionID{lost}, v5rows, proteinSchema(), "healed", "dave"); err != nil {
		t.Fatalf("commit after journal re-attach: %v", err)
	}
}

// TestJournalDetachClearsPoison: detaching (journal = nil) also clears the
// poison — an engine Close detaches every journal, and the now-ephemeral CVD
// must keep accepting commits.
func TestJournalDetachClearsPoison(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	j := &flakyJournal{failNext: true}
	c.SetJournal(j)
	rows := []relstore.Row{prow("ENSP000001", "ENSP000002", 1, 2, 3)}
	if _, err := c.Commit([]vgraph.VersionID{4}, rows, proteinSchema(), "lost", "a"); err == nil {
		t.Fatal("commit with failing journal reported success")
	}
	c.SetJournal(nil)
	if c.JournalErr() != nil {
		t.Fatal("detach did not clear the poison")
	}
	if _, err := c.Commit([]vgraph.VersionID{4}, rows, proteinSchema(), "ephemeral", "a"); err != nil {
		t.Fatalf("ephemeral commit after detach: %v", err)
	}
}

// failingModel refuses the next AppendVersion, as a physical model that hit
// an insert error would.
type failingModel struct {
	DataModel
	failNext bool
}

func (m *failingModel) AppendVersion(req CommitRequest) error {
	if m.failNext {
		m.failNext = false
		return errors.New("injected model failure")
	}
	return m.DataModel.AppendVersion(req)
}

// TestRejectedCommitAllocatesNothing: a commit refused after its rows were
// diffed — a malformed row behind well-formed ones, a duplicate key among
// them, a poisoned journal, or the physical model failing once the fresh
// records are in the catalog — must leave the record catalog, the next record
// id and the record index as they were (and, refused before the model saw it,
// the schema too; a model that fails under an evolving commit has already been
// altered, which the next delta's schema then carries). The next commit is
// journalled with record ids that continue the log, so a fresh CVD replays it;
// handing the refused commit's rids out for good would journal a gap that
// replay refuses.
func TestRejectedCommitAllocatesNothing(t *testing.T) {
	wider := relstore.MustSchema(append(append([]relstore.Column(nil), proteinSchema().Columns...),
		relstore.Column{Name: "note", Type: relstore.TypeString}), proteinSchema().PrimaryKey...)
	wideRow := func(p1, p2 string) relstore.Row { return append(prow(p1, p2, 7, 8, 9), relstore.Str("n")) }
	failModel := func(c *CVD) { c.model = &failingModel{DataModel: c.model, failNext: true} }
	rejections := map[string]struct {
		evolves bool // the refused commit reached adoptSchema
		reject  func(c *CVD) error
	}{
		"malformed-row": {reject: func(c *CVD) error {
			rows := []relstore.Row{wideRow("ENSP000010", "ENSP000011"), wideRow("ENSP000012", "ENSP000013"), prow("ENSP000014", "ENSP000015", 1, 1, 1)}
			_, err := c.Commit([]vgraph.VersionID{4}, rows, wider, "rejected", "eve")
			return err
		}},
		"duplicate-key": {reject: func(c *CVD) error {
			rows := []relstore.Row{prow("ENSP000010", "ENSP000011", 1, 1, 1), prow("ENSP000012", "ENSP000013", 2, 2, 2), prow("ENSP000010", "ENSP000011", 3, 3, 3)}
			_, err := c.Commit([]vgraph.VersionID{4}, rows, proteinSchema(), "rejected", "eve")
			return err
		}},
		"model-failure": {reject: func(c *CVD) error {
			failModel(c)
			rows := []relstore.Row{prow("ENSP000010", "ENSP000011", 1, 1, 1), prow("ENSP000012", "ENSP000013", 2, 2, 2)}
			_, err := c.Commit([]vgraph.VersionID{4}, rows, proteinSchema(), "rejected", "eve")
			return err
		}},
		"model-failure-evolving": {evolves: true, reject: func(c *CVD) error {
			failModel(c)
			rows := []relstore.Row{wideRow("ENSP000010", "ENSP000011"), wideRow("ENSP000012", "ENSP000013")}
			_, err := c.Commit([]vgraph.VersionID{4}, rows, wider, "rejected", "eve")
			return err
		}},
	}
	for name, tc := range rejections {
		for _, model := range allModels {
			t.Run(name+"/"+model.String(), func(t *testing.T) {
				_, c := buildProteinCVD(t, model)
				j := &flakyJournal{}
				c.SetJournal(j)
				nextRID, records, schema := c.nextRID, c.catalog.Len(), c.Schema()
				idx, indexed := c.index, c.index.content.n
				if err := tc.reject(c); err == nil {
					t.Fatal("the commit was accepted")
				}
				if c.nextRID != nextRID || c.catalog.Len() != records {
					t.Fatalf("rejected commit allocated records: next rid %d → %d, catalog %d → %d", nextRID, c.nextRID, records, c.catalog.Len())
				}
				if !tc.evolves {
					if !c.Schema().Equal(schema) {
						t.Fatalf("rejected commit evolved the schema to (%s)", c.Schema())
					}
					if c.index != idx || c.index.content.n != indexed {
						t.Fatalf("rejected commit touched the record index: %d entries, had %d", c.index.content.n, indexed)
					}
				}
				if len(j.log) != 0 {
					t.Fatal("rejected commit was journalled")
				}
				good := []relstore.Row{prow("ENSP000020", "ENSP000021", 1, 2, 3)}
				v, err := c.Commit([]vgraph.VersionID{4}, good, proteinSchema(), "good", "eve")
				if err != nil {
					t.Fatalf("commit after the rejected one: %v", err)
				}
				if rid := c.RecordsOf(v)[0]; rid != nextRID {
					t.Fatalf("the next commit's record is %d, want the refused commit's first rid %d", rid, nextRID)
				}
				_, fresh := buildProteinCVD(t, model)
				for _, jc := range j.log {
					if err := fresh.ReplayCommit(jc.versions, jc.delta, jc.schema, jc.msg, jc.author, jc.at); err != nil {
						t.Fatalf("the journalled log no longer replays: %v", err)
					}
				}
				if got, want := fresh.RecordsOf(v), c.RecordsOf(v); !slices.Equal(got, want) {
					t.Fatalf("replayed version %d holds records %v, live %v", v, got, want)
				}
				got, _ := fresh.RecordContent(nextRID)
				want, _ := c.RecordContent(nextRID)
				if err := sameRows([]relstore.Row{got}, []relstore.Row{want}); err != nil {
					t.Fatalf("replayed record %d: %v", nextRID, err)
				}
			})
		}
	}
}

// TestPoisonedJournalRefusesBeforeApply: a commit the journal would not take
// is refused before anything is applied — catalog, next record id and index
// stay as the lost commit left them.
func TestPoisonedJournalRefusesBeforeApply(t *testing.T) {
	_, c := buildProteinCVD(t, SplitByRlist)
	j := &flakyJournal{failNext: true}
	c.SetJournal(j)
	rows := []relstore.Row{prow("ENSP000001", "ENSP000002", 1, 2, 3)}
	if _, err := c.Commit([]vgraph.VersionID{4}, rows, proteinSchema(), "lost", "a"); err == nil {
		t.Fatal("commit with failing journal reported success")
	}
	nextRID, records, idx, indexed := c.nextRID, c.catalog.Len(), c.index, c.index.content.n
	more := []relstore.Row{prow("ENSP000003", "ENSP000004", 4, 5, 6)}
	if _, err := c.Commit([]vgraph.VersionID{4}, more, proteinSchema(), "refused", "a"); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("commit against a poisoned journal: %v", err)
	}
	if c.nextRID != nextRID || c.catalog.Len() != records || c.index != idx || c.index.content.n != indexed {
		t.Fatalf("refused commit changed state: next rid %d → %d, catalog %d → %d, index %d → %d entries",
			nextRID, c.nextRID, records, c.catalog.Len(), indexed, c.index.content.n)
	}
}
