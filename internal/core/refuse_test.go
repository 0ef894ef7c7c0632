package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cvd"
	"repro/internal/durable"
	"repro/internal/relstore"
)

// Only split-by-rlist CVDs are durable: the four other models are in-memory
// reproductions of Figure 4.1. The tests here hold every durable path to one
// refusal (cvd.ErrInMemoryModel) that touches nothing on disk.

// dirHashes returns the SHA-256 of every file in dir, by name.
func dirHashes(t *testing.T, dir string) map[string][32]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][32]byte, len(entries))
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = sha256.Sum256(data)
	}
	return out
}

// sameFiles fails unless dir holds exactly the files before describes.
func sameFiles(t *testing.T, what, dir string, before map[string][32]byte) {
	t.Helper()
	after := dirHashes(t, dir)
	if len(after) != len(before) {
		t.Fatalf("%s: the directory held %d files, now %d", what, len(before), len(after))
	}
	for name, sum := range before {
		if after[name] != sum {
			t.Fatalf("%s changed %s", what, name)
		}
	}
}

// refused fails unless err is the in-memory-model refusal naming the CVD and
// its model.
func refused(t *testing.T, what string, err error, name string, model cvd.ModelKind) {
	t.Helper()
	if !errors.Is(err, cvd.ErrInMemoryModel) || !strings.Contains(err.Error(), `"`+name+`" uses `+model.String()) {
		t.Fatalf("%s: %v, want the refusal of %q as %s", what, err, name, model)
	}
}

// TestDurableRefusesInMemoryModels: a durable engine's Init and Adopt refuse
// a CVD of another model before anything is created or journalled, and Save
// refuses one before it creates the target directory.
func TestDurableRefusesInMemoryModels(t *testing.T) {
	dir := t.TempDir()
	e, err := OpenDurable("refuse", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	schema := relstore.MustSchema([]relstore.Column{{Name: "id", Type: relstore.TypeInt}}, "id")
	rows := []relstore.Row{{relstore.Int(1)}}
	if _, err := e.Init("keep", schema, rows, cvd.Options{}); err != nil {
		t.Fatal(err)
	}
	before := dirHashes(t, dir)

	_, err = e.Init("vlist", schema, rows, cvd.Options{Model: cvd.SplitByVlist})
	refused(t, "Init", err, "vlist", cvd.SplitByVlist)
	if e.Database().HasTable("vlist_data") || len(e.List()) != 1 {
		t.Fatalf("a refused Init left tables or a CVD behind: %v", e.List())
	}
	adopted, err := cvd.Init(relstore.NewDatabase("outside"), "combined", schema, rows, cvd.Options{Model: cvd.CombinedTable})
	if err != nil {
		t.Fatal(err)
	}
	refused(t, "Adopt", e.Adopt(adopted), "combined", cvd.CombinedTable)
	if len(e.List()) != 1 {
		t.Fatalf("a refused Adopt registered the CVD: %v", e.List())
	}
	sameFiles(t, "a refused Init or Adopt", dir, before)

	mem := Open("mem")
	if _, err := mem.Init("delta", schema, rows, cvd.Options{Model: cvd.DeltaBased}); err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(t.TempDir(), "target")
	refused(t, "Save", mem.Save(target), "delta", cvd.DeltaBased)
	if _, err := os.Stat(target); !os.IsNotExist(err) {
		t.Fatalf("a refused Save created its target (%v)", err)
	}
}

// withInitModel rewrites the model field of the first WAL record of dir — the
// init record of its first CVD — to kind, as a build that journalled the
// in-memory models wrote it.
func withInitModel(t *testing.T, dir string, kind cvd.ModelKind) {
	t.Helper()
	path := filepath.Join(dir, durable.WALSegmentFileName(0))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, frames := walFrames(t, raw)
	f := frames[0]               // length, CRC, then the payload: op, name length, name, model
	f[10+int(f[9])] = byte(kind) // names shorter than 128 bytes
	binary.LittleEndian.PutUint32(f[4:8], crc32.ChecksumIEEE(f[8:]))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// withHeadModel rewrites the model field of every CVD head of dir's manifest
// at epoch to kind, as a build that checkpointed the in-memory models wrote
// it: the edited head is appended to the pack under its own content hash and
// the manifest is pointed at it.
func withHeadModel(t *testing.T, dir string, epoch uint64, kind cvd.ModelKind) {
	t.Helper()
	const packHeader, frameHeader, manifestHeader = 12, 24, 20
	const cvdHeadChunk = 2
	packPath := filepath.Join(dir, durable.PackFile)
	pack, err := os.ReadFile(packPath)
	if err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, durable.ManifestFileName(epoch))
	man, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	payload := man[manifestHeader:]
	edited, end := 0, len(pack)
	for off := packHeader; off < end; {
		hash := pack[off : off+16]
		n := int(binary.LittleEndian.Uint32(pack[off+16:]))
		chunk := pack[off+frameHeader : off+frameHeader+n]
		off += frameHeader + n
		if chunk[0] != cvdHeadChunk || !bytes.Contains(payload, hash) {
			continue
		}
		head := append([]byte(nil), chunk...)
		head[2+int(head[1])] = byte(kind) // kind, name length, name, model
		sum := sha256.Sum256(head)
		payload = bytes.ReplaceAll(payload, hash, sum[:16])
		frame := binary.LittleEndian.AppendUint32(append([]byte(nil), sum[:16]...), uint32(len(head)))
		frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(head))
		pack = append(pack, append(frame, head...)...)
		edited++
	}
	if edited == 0 {
		t.Fatal("the manifest references no CVD head")
	}
	man = append(man[:manifestHeader], payload...)
	binary.LittleEndian.PutUint32(man[16:20], crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(packPath, pack, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, man, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestInMemoryModelDirectoryRefused: a directory holding a CVD of another
// model — in a WAL init record, or in a checkpointed CVD head — is refused by
// the open, by point-in-time restore and by fsck with and without repair, as a
// returned error rather than a corruption to report, truncate or quarantine.
// Every file is left as it was.
func TestInMemoryModelDirectoryRefused(t *testing.T) {
	schema := relstore.MustSchema([]relstore.Column{{Name: "id", Type: relstore.TypeInt}, {Name: "v", Type: relstore.TypeString}}, "id")
	for _, tc := range []struct {
		name       string
		checkpoint bool
		edit       func(t *testing.T, dir string)
	}{
		{"wal-init", false, func(t *testing.T, dir string) { withInitModel(t, dir, cvd.SplitByVlist) }},
		{"checkpoint-head", true, func(t *testing.T, dir string) { withHeadModel(t, dir, 1, cvd.SplitByVlist) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e, err := OpenDurable("old", dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Init("d", schema, []relstore.Row{{relstore.Int(1), relstore.Str("a")}, {relstore.Int(2), relstore.Null()}}, cvd.Options{}); err != nil {
				t.Fatal(err)
			}
			if tc.checkpoint {
				if err := e.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			tc.edit(t, dir)
			before := dirHashes(t, dir)

			_, err = OpenDurable("old", dir)
			refused(t, "OpenDurable", err, "d", cvd.SplitByVlist)
			if tc.checkpoint {
				// A restore reads a manifest and no WAL: only a head can be refused.
				_, err = OpenAtEpoch("old", dir, 1)
				refused(t, "OpenAtEpoch", err, "d", cvd.SplitByVlist)
			}
			for _, repair := range []bool{false, true} {
				_, err := durable.Scrub(dir, durable.ScrubOptions{Repair: repair})
				refused(t, "Scrub", err, "d", cvd.SplitByVlist)
			}
			sameFiles(t, "a refusal", dir, before)
		})
	}
}
