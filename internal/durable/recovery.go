package durable

import (
	"fmt"

	"repro/internal/cvd"
	"repro/internal/relstore"
)

// Recovery is the semantic half of recovering a data directory: Restore
// rebuilds a checkpoint's CVDs over its tables and Apply replays one WAL
// record onto them. Each refuses a state or a record that does not continue
// what came before. The open (core.OpenDurable), point-in-time restore
// (core.OpenAtEpoch) and Scrub all run it, so fsck reports exactly the
// refusals the open fails with.
type Recovery struct {
	DB   *relstore.Database
	CVDs map[string]*cvd.CVD
	// Workers is the worker count a CVD created by a replayed init takes.
	Workers int
}

// NewRecovery starts a recovery over db with no CVDs.
func NewRecovery(db *relstore.Database, workers int) *Recovery {
	return &Recovery{DB: db, CVDs: make(map[string]*cvd.CVD), Workers: workers}
}

// Restore populates the recovery from a decoded snapshot: the tables attach
// straight to the database (a fresh one named for the snapshot's, when it has
// a name) and each CVD state is rebuilt over them (cvd.Restore).
func (r *Recovery) Restore(snap *Snapshot) error {
	if snap.DBName != "" {
		r.DB = relstore.NewDatabase(snap.DBName)
	}
	for _, t := range snap.Tables {
		r.DB.AttachTable(t)
	}
	for _, st := range snap.CVDs {
		c, err := cvd.Restore(r.DB, st)
		if err != nil {
			return err
		}
		r.CVDs[c.Name()] = c
	}
	return nil
}

// Apply replays one WAL record: an init or commit record's delta goes straight
// back into the CVD (cvd.ReplayInit / ReplayCommit), which refuses one that
// does not continue its state.
func (r *Recovery) Apply(rec *Record) error {
	switch rec.Op {
	case OpInit:
		if _, dup := r.CVDs[rec.CVD]; dup {
			return fmt.Errorf("durable: WAL replays init of existing CVD %q", rec.CVD)
		}
		c, err := cvd.ReplayInit(r.DB, rec.CVD, rec.Versions, rec.Delta, rec.Schema, cvd.Options{
			Author:  rec.Author,
			Message: rec.Message,
			At:      rec.At,
			Workers: r.Workers,
		})
		if err != nil {
			return fmt.Errorf("durable: replaying init of %q: %w", rec.CVD, err)
		}
		r.CVDs[rec.CVD] = c
		return nil
	case OpCommit:
		c, ok := r.CVDs[rec.CVD]
		if !ok {
			return fmt.Errorf("durable: WAL replays commit to unknown CVD %q (a CVD adopted but never checkpointed?)", rec.CVD)
		}
		if err := c.ReplayCommit(rec.Versions, rec.Delta, rec.Schema, rec.Message, rec.Author, rec.At); err != nil {
			return fmt.Errorf("durable: replaying commit to %q: %w", rec.CVD, err)
		}
		return nil
	case OpDrop:
		// A drop may race a checkpoint in the original process (the CVD was
		// already unlinked from the snapshot's registry), so a drop of an
		// unknown CVD is a no-op, not corruption.
		if c, ok := r.CVDs[rec.CVD]; ok {
			c.Drop()
			delete(r.CVDs, rec.CVD)
		}
		return nil
	default:
		return fmt.Errorf("durable: unknown WAL record op %d", rec.Op)
	}
}
