package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cvd"
	"repro/internal/durable"
	"repro/internal/vfs"
	"repro/internal/vgraph"
)

// exportSource builds the two-CVD engine the export tests save, with its
// storage I/O routed through fsys.
func exportSource(t *testing.T, fsys vfs.FS) *Engine {
	t.Helper()
	const seed = 11
	e := Open("export", WithFS(fsys), WithWorkers(1))
	for _, name := range []string{"a", "b"} {
		if _, err := e.Init(name, sweepSchema(), sweepRows(seed, 2), cvd.Options{Author: "export", Message: name + " v1"}); err != nil {
			t.Fatal(err)
		}
		c, err := e.CVD(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Commit([]vgraph.VersionID{1}, sweepRows(seed, 5), sweepSchema(), name+" v2", "export"); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestSaveFaultSweep arms one fault at every I/O operation of one Save and
// reopens the target on the real filesystem: it must hold exactly the saved
// state or none of it — the manifest rename is the export's commit point —
// never a subset. Before the reopen, the target's checkpoint must load alike
// on one worker and on four (loadsAgreeAcrossWorkers), and fsck must agree
// with the open on the target and repair it (fsckAgreesWithOpen). It also pins that an export's
// I/O goes through the engine's filesystem at all: the golden run counts
// operations on the injector.
func TestSaveFaultSweep(t *testing.T) {
	const seed = 5
	golden := vfs.NewFaultFS(vfs.OS(), seed)
	if err := exportSource(t, golden).Save(filepath.Join(t.TempDir(), "golden")); err != nil {
		t.Fatal(err)
	}
	ops := golden.Ops()
	if ops < 8 {
		t.Fatalf("Save issued %d operations on the engine's filesystem, want the whole export (>= 8)", ops)
	}
	points, whole := 0, 0
	for _, kind := range []vfs.FaultKind{vfs.FaultENOSPC, vfs.FaultShortWrite, vfs.FaultSyncErr, vfs.FaultCrash} {
		for op := int64(1); op <= ops; op++ {
			ctx := fmt.Sprintf("kind=%s op=%d", kind, op)
			fsys := vfs.NewFaultFS(vfs.OS(), seed)
			fsys.FailAt(op, kind)
			dir := filepath.Join(t.TempDir(), "target")
			src := exportSource(t, fsys)
			saveErr := src.Save(dir)
			if fsys.Injected() == 0 {
				t.Fatalf("%s: fault never fired (golden run had %d ops)", ctx, ops)
			}
			points++
			if err := loadsAgreeAcrossWorkers(dir); err != nil {
				t.Errorf("%s: %v", ctx, err)
			}
			if err := fsckAgreesWithOpen(dir); err != nil {
				t.Errorf("%s: %v", ctx, err)
				continue
			}
			got, err := OpenDurable("export", dir)
			if err != nil {
				t.Errorf("%s: target does not reopen: %v", ctx, err)
				continue
			}
			if len(got.List()) > 0 || saveErr == nil {
				whole++
				if err := EnginesEquivalent(ctx, src, got); err != nil {
					t.Errorf("%s (Save returned %v): %v", ctx, saveErr, err)
				}
			}
			got.Close()
		}
	}
	if whole == 0 || whole == points {
		t.Errorf("%d of %d faulted exports reopened whole: the sweep saw only one side of the commit point", whole, points)
	}
	t.Logf("%d operations per Save, %d injection points, %d reopened whole and %d empty", ops, points, whole, points-whole)
}

// TestSaveRefusesLiveDirectory: a directory that already holds checkpoint or
// WAL state is never exported over — whether a previous export's manifest or
// the bare WAL segment of a directory that was opened and never checkpointed.
func TestSaveRefusesLiveDirectory(t *testing.T) {
	src := exportSource(t, vfs.OS())
	exported := t.TempDir()
	if err := src.Save(exported); err != nil {
		t.Fatal(err)
	}
	walOnly := t.TempDir()
	e, err := OpenDurable("live", walOnly)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for dir, has := range map[string]string{exported: "a checkpoint manifest", walOnly: "a WAL segment"} {
		err := src.Save(dir)
		if err == nil || !strings.Contains(err.Error(), "live data directory") || !strings.Contains(err.Error(), has) {
			t.Errorf("Save into a directory with %s: %v", has, err)
		}
	}
	// The refused export left the first one as it was.
	got, err := OpenDurable("export", exported)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if err := EnginesEquivalent("re-save", src, got); err != nil {
		t.Fatal(err)
	}
}

// TestFlatExportRefused: builds before this one exported a single
// snapshot.orph. This build does not read it, and must say so rather than
// open the directory as an empty store; next to a manifest — the recovery
// root both builds agree on — the file is ignored.
func TestFlatExportRefused(t *testing.T) {
	const want = "holds a flat snapshot.orph export; this build reads pack + manifest only"
	writeFlat := func(dir string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, "snapshot.orph"), []byte("ORPHSNP1\x02\x00\x00\x00"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := t.TempDir()
	writeFlat(old)
	_, openErr := OpenDurable("old", old)
	_, epochErr := OpenAtEpoch("old", old, 0)
	_, scrubErr := durable.Scrub(old, durable.ScrubOptions{})
	for what, err := range map[string]error{"OpenDurable": openErr, "OpenAtEpoch": epochErr, "Scrub": scrubErr} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s of a flat export: %v", what, err)
		}
	}

	// A manifest of format version 2 — the builds that kept a record catalog
	// section beside the tables wrote those — is another build's directory, not
	// a corrupt one: refused with one sentence by all three, before the pack is
	// read, and never quarantined by a repairing scrub.
	const wantVersion = "is a format version 2 manifest, this build reads version 7 only"
	v2 := t.TempDir()
	v2Manifest := filepath.Join(v2, durable.ManifestFileName(1))
	if err := os.WriteFile(v2Manifest, append([]byte("ORPHMAN1\x02\x00\x00\x00"), make([]byte, 8)...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, openErr = OpenDurable("v2", v2)
	_, epochErr = OpenAtEpoch("v2", v2, 1)
	_, scrubErr = durable.Scrub(v2, durable.ScrubOptions{Repair: true})
	for what, err := range map[string]error{"OpenDurable": openErr, "OpenAtEpoch": epochErr, "Scrub": scrubErr} {
		if err == nil || !strings.Contains(err.Error(), wantVersion) {
			t.Errorf("%s of a version 2 manifest: %v", what, err)
		}
	}
	if _, err := os.Stat(v2Manifest); err != nil {
		t.Errorf("the refused manifest was moved: %v", err)
	}

	dir := t.TempDir()
	e, err := OpenDurable("new", dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Init("d", sweepSchema(), sweepRows(1, 3), cvd.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	writeFlat(dir)
	rep, err := durable.Scrub(dir, durable.ScrubOptions{})
	if err != nil || !rep.Healthy() {
		t.Fatalf("Scrub with a stray snapshot.orph beside a manifest: %v, %+v", err, rep)
	}
	at, err := OpenAtEpoch("new", dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenDurable("new", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if err := EnginesEquivalent("beside-manifest", at, reopened); err != nil {
		t.Fatal(err)
	}
	if got := reopened.List(); len(got) != 1 || got[0] != "d" {
		t.Fatalf("recovered CVDs %v, want [d]", got)
	}
}
