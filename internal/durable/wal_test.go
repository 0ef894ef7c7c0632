package durable

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// walSchema is a delta-table schema (see cvd.Journal): rid, then the data
// columns with their primary key.
func walSchema() relstore.Schema {
	return relstore.MustSchema([]relstore.Column{
		{Name: "rid", Type: relstore.TypeInt},
		{Name: "id", Type: relstore.TypeInt},
		{Name: "name", Type: relstore.TypeString},
	}, "id")
}

// walDelta is a delta table adding n records with rids first, first+1, ...
// and dropping the given rids.
func walDelta(first, n int, dropped ...int64) []relstore.Row {
	out := make([]relstore.Row, 0, n+len(dropped))
	for i := 0; i < n; i++ {
		out = append(out, relstore.Row{relstore.Int(int64(first + i)), relstore.Int(int64(i + 1)), relstore.Str("r")})
	}
	for _, rid := range dropped {
		out = append(out, relstore.Row{relstore.Int(rid)})
	}
	return out
}

// openCollect opens a data directory and drains its WAL into a slice — the
// shape the pre-streaming API returned, which the assertions below consume.
func openCollect(t *testing.T, dir string) (*Store, *OpenResult, []*Record) {
	t.Helper()
	s, res, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var records []*Record
	if _, err := s.ReplayWAL(func(r *Record) error {
		records = append(records, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return s, res, records
}

func logThree(t *testing.T, s *Store) {
	t.Helper()
	at := time.Unix(0, 1234567890)
	if err := s.LogInit("cvd", []vgraph.VersionID{1}, walDelta(1, 3), walSchema(), "init", "alice", at); err != nil {
		t.Fatal(err)
	}
	if err := s.LogCommit("cvd", []vgraph.VersionID{2, 1}, walDelta(4, 4, 2), walSchema(), "more", "bob", at.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := s.LogDrop("gone"); err != nil {
		t.Fatal(err)
	}
}

func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	s, res, recs := openCollect(t, dir)
	if res.Snapshot != nil || len(recs) != 0 {
		t.Fatalf("fresh dir recovered state: %+v", res)
	}
	logThree(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, res2, recs2 := openCollect(t, dir)
	defer s2.Close()
	if res2.TornTail || res2.StaleWAL {
		t.Fatalf("clean WAL flagged as recovered: %+v", res2)
	}
	if len(recs2) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs2))
	}
	r0 := recs2[0]
	if r0.Op != OpInit || r0.CVD != "cvd" || r0.Author != "alice" || !slices.EqualFunc(r0.Delta, walDelta(1, 3), relstore.Row.Identical) || !r0.Schema.Equal(walSchema()) {
		t.Fatalf("init record mismatch: %+v", r0)
	}
	if r0.At.UnixNano() != 1234567890 {
		t.Fatalf("init timestamp %d", r0.At.UnixNano())
	}
	r1 := recs2[1]
	if r1.Op != OpCommit || !reflect.DeepEqual(r1.Versions, []vgraph.VersionID{2, 1}) || !slices.EqualFunc(r1.Delta, walDelta(4, 4, 2), relstore.Row.Identical) || r1.Message != "more" {
		t.Fatalf("commit record mismatch: %+v", r1)
	}
	if recs2[2].Op != OpDrop || recs2[2].CVD != "gone" {
		t.Fatalf("drop record mismatch: %+v", recs2[2])
	}
}

// TestWALTornTail truncates the WAL at every possible byte boundary inside
// the last record and verifies replay recovers exactly the fully-written
// prefix, truncates the torn bytes, and accepts new appends afterwards.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	logThree(t, s)
	walPath := filepath.Join(dir, WALSegmentFileName(0))
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	full := info.Size()
	// Find the offset where the third record starts by replaying sizes.
	s.Close()

	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	for cut := full - 1; cut > walHeaderSize; cut-- {
		dir2 := t.TempDir()
		p2 := filepath.Join(dir2, WALSegmentFileName(0))
		if err := os.WriteFile(p2, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, _, recs := openCollect(t, dir2)
		// A cut landing exactly on a record boundary leaves a clean shorter
		// WAL; anywhere else must be detected as a torn tail.
		if len(recs) >= 3 {
			t.Fatalf("cut %d: replayed %d records from a truncated WAL", cut, len(recs))
		}
		// Every record that did replay must be complete and ordered.
		for i, r := range recs {
			wantOp := []RecordOp{OpInit, OpCommit, OpDrop}[i]
			if r.Op != wantOp {
				t.Fatalf("cut %d: record %d op %d, want %d", cut, i, r.Op, wantOp)
			}
		}
		// The file must have been truncated to a clean boundary: appending and
		// reopening yields the prefix plus the new record.
		before := len(recs)
		if err := s2.LogDrop("after-recovery"); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		s2.Close()
		s3, res3, recs3 := openCollect(t, dir2)
		s3.Close()
		if res3.TornTail {
			t.Fatalf("cut %d: reopen still sees a torn tail", cut)
		}
		if len(recs3) != before+1 {
			t.Fatalf("cut %d: %d records after recovery append, want %d", cut, len(recs3), before+1)
		}
		last := recs3[len(recs3)-1]
		if last.Op != OpDrop || last.CVD != "after-recovery" {
			t.Fatalf("cut %d: post-recovery record mismatch: %+v", cut, last)
		}
	}
}

// TestWALCorruptTail flips a byte in the middle of the record stream: the CRC
// framing must stop replay there rather than apply garbage.
func TestWALCorruptTail(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	logThree(t, s)
	s.Close()
	walPath := filepath.Join(dir, WALSegmentFileName(0))
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte well into the last record's payload.
	raw[len(raw)-3] ^= 0x55
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	sc, res, recs := openCollect(t, dir)
	defer sc.Close()
	if !res.TornTail {
		t.Fatal("corrupt tail not detected")
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records past corruption, want 2", len(recs))
	}
}

// TestDirectoryLock pins the single-opener rule: a second Open of a live
// data directory must fail loudly, and Close must release the lock.
func TestDirectoryLock(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err == nil {
		t.Fatal("second Open of a locked directory succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	s2.Close()
}

// TestStaleWALDiscarded simulates a crash between checkpoint's snapshot
// rename and WAL reset: the WAL carries an older epoch than the snapshot and
// must be discarded, not replayed.
func TestStaleWALDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	logThree(t, s)
	// Checkpoint writes an (empty-engine) snapshot at epoch 1... then
	// simulate the crash by restoring the old epoch-0 WAL content.
	walPath := filepath.Join(dir, WALSegmentFileName(0))
	oldWAL, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(&Snapshot{DBName: "db"}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.WriteFile(walPath, oldWAL, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, res, recs := openCollect(t, dir)
	defer s2.Close()
	if !res.StaleWAL {
		t.Fatal("stale WAL not flagged")
	}
	if len(recs) != 0 {
		t.Fatalf("stale WAL replayed %d records", len(recs))
	}
	if s2.Epoch() != 1 {
		t.Fatalf("epoch %d after recovery, want 1", s2.Epoch())
	}
}

// TestOldWALFormatRefused: a segment written before the delta record (WAL
// format version 2 logged full version images) must fail the open with an
// error that names the segment and both versions — there is no reader for it,
// and guessing would replay garbage.
func TestOldWALFormatRefused(t *testing.T) {
	dir := t.TempDir()
	hdr := []byte(walMagic + "\x02\x00\x00\x00" + "\x00\x00\x00\x00\x00\x00\x00\x00")
	if err := os.WriteFile(filepath.Join(dir, WALSegmentFileName(0)), hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(dir)
	if err == nil {
		t.Fatal("a version 2 WAL segment opened")
	}
	for _, want := range []string{WALSegmentFileName(0), "format version 2", "version 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal does not mention %q: %v", want, err)
		}
	}
}
