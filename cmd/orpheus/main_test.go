package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runSession drives the CLI in-process: a script of commands against fresh
// output buffers, returning the exit code plus captured stdout/stderr.
func runSession(t *testing.T, argv []string, script string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(argv, strings.NewReader(script), &out, &errw)
	return code, out.String(), errw.String()
}

// writeCSV drops a small CSV fixture and returns its path.
func writeCSV(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const proteinCSV = "pid,score,kind\n1,80,alpha\n2,95,beta\n3,70,alpha\n"

func TestDispatchHappyPath(t *testing.T) {
	dir := t.TempDir()
	csv := writeCSV(t, dir, "p.csv", proteinCSV)
	exportPath := filepath.Join(dir, "out.csv")
	script := strings.Join([]string{
		"# comment lines and blanks are skipped",
		"",
		"init proteins " + csv + " pk=pid",
		"ls",
		"checkout proteins -v 1 -t work",
		"commit proteins -t work -m recommit",
		"diff proteins 1 2",
		"select proteins -v 1,2 -w score>75 -limit 10",
		"versions proteins",
		"export proteins -v 2 -f " + exportPath,
		"log proteins",
		"drop proteins",
		"ls",
	}, "\n")
	code, out, errw := runSession(t, nil, script)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errw)
	}
	for _, want := range []string{
		"initialized CVD proteins from " + csv,
		"checked out 3 records into work",
		"committed version 2",
		"only in v1: 0 records; only in v2: 0 records",
		"(4 rows)",
		"v1\tparents=[]",
		"exported [2] to " + exportPath,
		"data directory: (none — in-memory session)",
		"== proteins (split-by-rlist, 2 versions",
		"dropped proteins",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
	if errw != "" {
		t.Errorf("unexpected stderr: %s", errw)
	}
	// After the drop, the final ls prints nothing for the CVD.
	bare := 0
	for _, line := range strings.Split(out, "\n") {
		if line == "proteins" {
			bare++
		}
	}
	if bare != 1 {
		t.Errorf("expected exactly one bare `proteins` list line, got %d:\n%s", bare, out)
	}
	exported, err := os.ReadFile(exportPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(exported), "pid,score,kind\n") {
		t.Errorf("export lacks header: %q", exported)
	}
}

func TestDispatchErrorsSetExitCode(t *testing.T) {
	cases := []struct {
		name    string
		script  string
		wantErr string
	}{
		{"unknown command", "frobnicate", `unknown command "frobnicate"`},
		{"unknown cvd", "checkout nope -v 1 -t t", `unknown CVD "nope"`},
		{"bad version id", "diff nope x 2", "invalid syntax"},
		{"missing csv", "init d /nonexistent/x.csv", "no such file"},
		{"bad usage", "commit", "usage: commit"},
		{"checkpoint in-memory", "checkpoint", "requires a durable engine"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, errw := runSession(t, nil, tc.script)
			if code != 1 {
				t.Fatalf("exit code %d, want 1 (stderr: %s)", code, errw)
			}
			if !strings.Contains(errw, tc.wantErr) {
				t.Errorf("stderr missing %q:\n%s", tc.wantErr, errw)
			}
		})
	}
	// Errors do not abort the session: later commands still run.
	code, out, _ := runSession(t, nil, "frobnicate\nls")
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	_ = out
}

func TestBadFlagsExitCode(t *testing.T) {
	code, _, _ := runSession(t, []string{"-nosuchflag"}, "")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	code, _, _ = runSession(t, []string{"-script", "/nonexistent/script"}, "")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

// TestSaveLoadAcrossSessions drives the durable workflow end to end through
// the CLI: one session builds and saves, a second loads (via `load`), a third
// opens the directory with -data, and all see the same history.
func TestSaveLoadAcrossSessions(t *testing.T) {
	dir := t.TempDir()
	csv := writeCSV(t, dir, "p.csv", proteinCSV)
	saveDir := filepath.Join(dir, "datadir")

	code, out, errw := runSession(t, nil, strings.Join([]string{
		"init proteins " + csv + " pk=pid",
		"checkout proteins -v 1 -t work",
		"commit proteins -t work -m second",
		"save " + saveDir,
	}, "\n"))
	if code != 0 {
		t.Fatalf("save session exit %d: %s", code, errw)
	}
	if !strings.Contains(out, "saved 1 CVDs to "+saveDir) {
		t.Errorf("missing save confirmation:\n%s", out)
	}

	// Session 2: starts empty, loads the directory, keeps working durably.
	code, out, errw = runSession(t, nil, strings.Join([]string{
		"load " + saveDir,
		"ls",
		"versions proteins",
		"checkout proteins -v 2 -t more",
		"commit proteins -t more -m third",
		"checkpoint",
	}, "\n"))
	if code != 0 {
		t.Fatalf("load session exit %d: %s", code, errw)
	}
	for _, want := range []string{"loaded 1 CVDs from " + saveDir, "proteins", "msg=second", "committed version 3", "checkpointed"} {
		if !strings.Contains(out, want) {
			t.Errorf("load session stdout missing %q:\n%s", want, out)
		}
	}

	// Session 3: -data opens the same directory; the post-load commit (which
	// went through the WAL, then a checkpoint) must still be there.
	code, out, errw = runSession(t, []string{"-data", saveDir}, "log proteins\nselect proteins -v 3 -limit 1")
	if code != 0 {
		t.Fatalf("-data session exit %d: %s", code, errw)
	}
	for _, want := range []string{"data directory: " + saveDir, "3 versions", "third"} {
		if !strings.Contains(out, want) {
			t.Errorf("-data session stdout missing %q:\n%s", want, out)
		}
	}
}

// TestEpochsAndRestore drives the point-in-time workflow through the CLI:
// each checkpoint leaves a retained epoch, `epochs` lists them, and `restore`
// exports one as a standalone directory holding exactly the history of that
// moment.
func TestEpochsAndRestore(t *testing.T) {
	dir := t.TempDir()
	csv := writeCSV(t, dir, "p.csv", proteinCSV)
	dataDir := filepath.Join(dir, "datadir")
	restoreDir := filepath.Join(dir, "restored")

	code, out, errw := runSession(t, []string{"-data", dataDir, "-keep-epochs", "4"}, strings.Join([]string{
		"init proteins " + csv + " pk=pid",
		"checkpoint", // epoch 1: one version
		"checkout proteins -v 1 -t work",
		"commit proteins -t work -m second",
		"checkpoint", // epoch 2: two versions
		"epochs",
		"restore 1 " + restoreDir,
	}, "\n"))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	for _, want := range []string{"(2 retained epochs)", "restored epoch 1 to " + restoreDir, "chunks written"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}

	// The restored directory is the pre-second-commit state.
	code, out, errw = runSession(t, []string{"-data", restoreDir}, "versions proteins")
	if code != 0 {
		t.Fatalf("restored session exit %d: %s", code, errw)
	}
	if !strings.Contains(out, "v1\t") || strings.Contains(out, "v2\t") {
		t.Errorf("restored session should hold exactly v1:\n%s", out)
	}

	// A pruned/unknown epoch is refused with exit code 1.
	code, _, errw = runSession(t, []string{"-data", dataDir}, "restore 99 "+filepath.Join(dir, "nope"))
	if code != 1 {
		t.Fatalf("restore of unknown epoch: exit %d, want 1 (stderr: %s)", code, errw)
	}
}

// TestFsckCommand runs `orpheus fsck` end to end: a healthy directory exits
// 0, printing its live chunks' bytes by kind before the verdict, a corrupted
// pack exits 1 and names the damage, and a torn WAL tail is repaired by
// -repair after which the directory is clean again.
func TestFsckCommand(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	csv := writeCSV(t, dir, "p.csv", proteinCSV)
	code, _, errw := runSession(t, []string{"-data", data},
		"init proteins "+csv+" pk=pid\ncheckpoint\ncheckout proteins -v 1 -t work\ncommit proteins -t work -m tweak\n")
	if code != 0 {
		t.Fatalf("seed session exit %d: %s", code, errw)
	}

	code, out, errw := runSession(t, []string{"fsck", data}, "")
	if code != 0 {
		t.Fatalf("fsck of healthy dir exit %d: %s%s", code, out, errw)
	}
	if !strings.Contains(out, "clean") {
		t.Fatalf("fsck output missing 'clean': %s", out)
	}
	// The live chunks' bytes by kind come before the verdict, which stays the
	// last line.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 3 || lines[len(lines)-1] != "clean" || !strings.HasPrefix(lines[1], "live chunk payload: ") ||
		!strings.Contains(lines[1], "B column bands, ") || !strings.Contains(lines[1], "B record-set runs") {
		t.Fatalf("fsck output lacks the live bytes by kind before its verdict: %s", out)
	}

	// Tear the active WAL tail: fsck must flag it, -repair must fix it.
	var walPath string
	entries, err := os.ReadDir(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), "wal-") && strings.HasSuffix(ent.Name(), ".orph") {
			walPath = filepath.Join(data, ent.Name())
		}
	}
	if walPath == "" {
		t.Fatal("no WAL segment in data dir")
	}
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 9, 9, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	code, out, _ = runSession(t, []string{"fsck", data}, "")
	if code != 1 {
		t.Fatalf("fsck of torn dir exit %d, want 1: %s", code, out)
	}
	if !strings.Contains(out, string("torn-wal-tail")) {
		t.Fatalf("fsck output missing torn-wal-tail: %s", out)
	}

	code, out, _ = runSession(t, []string{"fsck", "-repair", data}, "")
	if code != 0 {
		t.Fatalf("fsck -repair exit %d: %s", code, out)
	}
	if !strings.Contains(out, "REPAIRED") {
		t.Fatalf("fsck -repair output missing REPAIRED: %s", out)
	}

	// The repaired directory must open and still hold both versions.
	code, out, errw = runSession(t, []string{"-data", data}, "versions proteins\n")
	if code != 0 {
		t.Fatalf("reopening repaired dir exit %d: %s", code, errw)
	}
	if !strings.Contains(out, "v1") || !strings.Contains(out, "v2") {
		t.Fatalf("repaired dir lost versions: %s", out)
	}

	// Usage errors exit 2.
	if code, _, _ := runSession(t, []string{"fsck"}, ""); code != 2 {
		t.Fatalf("fsck with no dir exit %d, want 2", code)
	}
}

// TestFsckRefusesInMemoryModel: a directory whose WAL creates a CVD of a model
// that does not persist — as a build that journalled the in-memory models wrote
// it — is not a damaged directory but another build's: fsck and the open both
// exit 2 naming the CVD and its model.
func TestFsckRefusesInMemoryModel(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	csv := writeCSV(t, dir, "p.csv", proteinCSV)
	if code, _, errw := runSession(t, []string{"-data", data}, "init proteins "+csv+" pk=pid\n"); code != 0 {
		t.Fatalf("seed session exit %d: %s", code, errw)
	}
	// The init record is the WAL's first frame (after the 20-byte header):
	// length, CRC, then op, name length, name, and the model field.
	wal := filepath.Join(data, "wal-0000000000000000.orph")
	raw, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	frame := raw[20:]
	n := binary.LittleEndian.Uint32(frame)
	frame[8+2+len("proteins")] = 4 // delta-based
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(frame[8:8+n]))
	if err := os.WriteFile(wal, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, argv := range [][]string{{"fsck", data}, {"fsck", "-repair", data}, {"-data", data}} {
		code, _, errw := runSession(t, argv, "")
		if code != 2 || !strings.Contains(errw, `"proteins" uses delta-based`) || !strings.Contains(errw, "only split-by-rlist CVDs are durable") {
			t.Fatalf("%v: exit %d, want 2 with the refusal: %s", argv, code, errw)
		}
	}
}

// TestFsckRefusesManifestVersion3: a directory checkpointed by a build whose
// manifests were of version 3 — they listed a versioning table beside the
// record-set runs — is another build's: fsck, with and without -repair, and
// the open exit 2 naming the version, and no file changes.
func TestFsckRefusesManifestVersion3(t *testing.T) { fsckRefusesManifestVersion(t, 3) }

// TestFsckRefusesManifestVersion6: so is one whose manifests were of version
// 6, which listed each CVD's metadata table beside its data table.
func TestFsckRefusesManifestVersion6(t *testing.T) { fsckRefusesManifestVersion(t, 6) }

// fsckRefusesManifestVersion rewrites the version field of a checkpointed
// directory's manifest to v and requires fsck, fsck -repair and the open to
// refuse it by name, changing nothing.
func fsckRefusesManifestVersion(t *testing.T, v uint32) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	csv := writeCSV(t, dir, "p.csv", proteinCSV)
	if code, _, errw := runSession(t, []string{"-data", data}, "init proteins "+csv+" pk=pid\ncheckpoint\n"); code != 0 {
		t.Fatalf("seed session exit %d: %s", code, errw)
	}
	manifest := filepath.Join(data, "manifest-0000000000000001.orph")
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[8:12], v) // the version field after the magic
	if err := os.WriteFile(manifest, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, argv := range [][]string{{"fsck", data}, {"fsck", "-repair", data}, {"-data", data}} {
		code, _, errw := runSession(t, argv, "")
		if code != 2 || !strings.Contains(errw, fmt.Sprintf("is a format version %d manifest, this build reads version 7 only", v)) {
			t.Fatalf("%v: exit %d, want 2 with the refusal: %s", argv, code, errw)
		}
	}
	if after, err := os.ReadFile(manifest); err != nil || !bytes.Equal(after, raw) {
		t.Fatalf("the refused manifest changed (%v)", err)
	}
}
