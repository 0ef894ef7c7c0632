package vfs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// FaultFS is the oracle of the durable layer's fault sweeps, so its own
// semantics are pinned here against a real directory: what reaches the inner
// filesystem is what a power cut would leave.

// disk reads a file's durable image straight from the real filesystem (nil
// when it does not exist).
func disk(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return data
}

func create(t *testing.T, fsys FS, path string) File {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustWrite(t *testing.T, f File, p string) {
	t.Helper()
	if _, err := f.Write([]byte(p)); err != nil {
		t.Fatal(err)
	}
}

func TestFaultFSBuffersUntilSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	fsys := NewFaultFS(OS(), 1)
	f := create(t, fsys, path)
	mustWrite(t, f, "hello")
	if got := disk(t, path); len(got) != 0 {
		t.Fatalf("unsynced write reached the disk: %q", got)
	}
	// The view is what every reader of the FaultFS sees, before any sync.
	if info, err := fsys.Stat(path); err != nil || info.Size() != 5 {
		t.Fatalf("Stat of a buffered file: %v, %v", info, err)
	}
	if got, err := ReadFile(fsys, path); err != nil || string(got) != "hello" {
		t.Fatalf("read through the FaultFS: %q, %v", got, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := disk(t, path); string(got) != "hello" {
		t.Fatalf("synced image %q, want %q", got, "hello")
	}
	// A truncate is buffered like a write.
	if err := f.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if got := disk(t, path); string(got) != "hello" {
		t.Fatalf("unsynced truncate reached the disk: %q", got)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := disk(t, path); string(got) != "he" {
		t.Fatalf("synced image after truncate %q, want %q", got, "he")
	}
	// Counted: create, write, sync, truncate, sync. Reads and Stat are not.
	if got := fsys.Ops(); got != 5 {
		t.Fatalf("Ops() = %d, want 5", got)
	}
}

// TestFaultFSFailAt arms each fault kind at one operation of the same script —
// create, write "aaaa", write "bbbbbbbb", sync — and checks the documented
// effect, that the operations around it are untouched, and that the fault
// fires exactly once.
func TestFaultFSFailAt(t *testing.T) {
	cases := []struct {
		name  string
		kind  FaultKind
		op    int64
		is    error  // the failing operation's error matches this...
		says  string // ...and says this
		view  string // the FaultFS view after the script
		image string // the durable image after the script
	}{
		{name: "enospc has no effect", kind: FaultENOSPC, op: 3, is: ErrInjected, says: syscall.ENOSPC.Error(),
			view: "aaaa", image: "aaaa"},
		{name: "short write lands half the buffer", kind: FaultShortWrite, op: 3, is: ErrInjected, says: io.ErrShortWrite.Error(),
			view: "aaaabbbb", image: "aaaabbbb"},
		{name: "sync error flushes nothing", kind: FaultSyncErr, op: 4, is: ErrInjected, says: "fsync failed",
			view: "aaaabbbbbbbb", image: ""},
		{name: "crash is forever", kind: FaultCrash, op: 3, is: ErrCrashed, says: "crashed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "f")
			fsys := NewFaultFS(OS(), 7)
			fsys.FailAt(tc.op, tc.kind)
			f := create(t, fsys, path) // op 1
			mustWrite(t, f, "aaaa")    // op 2
			_, writeErr := f.Write([]byte("bbbbbbbb"))
			for i, err := range []error{writeErr, f.Sync()} {
				switch op := int64(i + 3); {
				case op == tc.op:
					if !errors.Is(err, tc.is) || !strings.Contains(err.Error(), tc.says) {
						t.Fatalf("op %d: error %v, want %v saying %q", op, err, tc.is, tc.says)
					}
				case op > tc.op && tc.kind == FaultCrash:
					if !errors.Is(err, ErrCrashed) {
						t.Fatalf("op %d after the crash: %v", op, err)
					}
				case err != nil:
					t.Fatalf("op %d: %v", op, err)
				}
			}
			if got := fsys.Injected(); got != 1 {
				t.Fatalf("Injected() = %d, want 1", got)
			}
			if fsys.Crashed() != (tc.kind == FaultCrash) {
				t.Fatalf("Crashed() = %v", fsys.Crashed())
			}
			if tc.kind == FaultCrash {
				// Dead to every entry point; the unsynced "aaaa" is all that
				// could have reached the disk, and only a prefix of it.
				_, openErr := fsys.OpenFile(path, os.O_RDWR, 0)
				_, listErr := fsys.ReadDir(filepath.Dir(path))
				for _, err := range []error{openErr, listErr, fsys.Rename(path, path+"2"), fsys.SyncDir(filepath.Dir(path))} {
					if !errors.Is(err, ErrCrashed) {
						t.Fatalf("after the crash: %v, want ErrCrashed", err)
					}
				}
				if got := string(disk(t, path)); !strings.HasPrefix("aaaa", got) {
					t.Fatalf("durable image %q is not a prefix of the one unsynced write", got)
				}
				return
			}
			if got, err := ReadFile(fsys, path); err != nil || string(got) != tc.view {
				t.Fatalf("view %q (%v), want %q", got, err, tc.view)
			}
			if got := disk(t, path); string(got) != tc.image {
				t.Fatalf("durable image %q, want %q", got, tc.image)
			}
			// One-shot: the next sync succeeds and flushes the view.
			if err := f.Sync(); err != nil {
				t.Fatalf("sync after the one-shot fault: %v", err)
			}
			if got := disk(t, path); string(got) != tc.view {
				t.Fatalf("image after a later sync %q, want the view %q", got, tc.view)
			}
		})
	}
}

// TestFaultFSCrashTearsDeterministically: a crash leaves each dirty file with
// its synced prefix plus a seeded-random part of the unsynced delta, never
// bytes from nowhere; the same seed tears the same way, and some seed tears
// differently.
func TestFaultFSCrashTearsDeterministically(t *testing.T) {
	const synced, delta = "SYNCED--", "unsynced-delta-of-some-length"
	tear := func(seed int64) (a, b string) {
		dir := t.TempDir()
		fsys := NewFaultFS(OS(), seed)
		for _, name := range []string{"a", "b"} {
			f := create(t, fsys, filepath.Join(dir, name))
			mustWrite(t, f, synced)
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			mustWrite(t, f, delta)
		}
		fsys.Crash()
		if !fsys.Crashed() {
			t.Fatal("Crashed() is false after Crash()")
		}
		fsys.Crash() // a second crash changes nothing
		return string(disk(t, filepath.Join(dir, "a"))), string(disk(t, filepath.Join(dir, "b")))
	}
	a1, b1 := tear(3)
	a2, b2 := tear(3)
	if a1 != a2 || b1 != b2 {
		t.Fatalf("same seed, different torn images: %q/%q vs %q/%q", a1, b1, a2, b2)
	}
	differs := false
	for seed := int64(4); seed < 12; seed++ {
		a, b := tear(seed)
		for _, img := range []string{a, b} {
			if len(img) < len(synced) || img != (synced + delta)[:len(img)] {
				t.Fatalf("seed %d: torn image %q is not the synced prefix plus part of the delta", seed, img)
			}
		}
		differs = differs || a != a1 || b != b1
	}
	if !differs {
		t.Fatal("eight other seeds all tore exactly like seed 3")
	}
}

func TestFaultFSWriteBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	fsys := NewFaultFS(OS(), 1)
	f := create(t, fsys, path)
	fsys.SetWriteBudget(6)
	mustWrite(t, f, "1234")
	// The write that crosses the budget lands the bytes that still fit.
	n, err := f.Write([]byte("abcdef"))
	if n != 2 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("crossing write: n=%d err=%v, want 2 bytes and ENOSPC", n, err)
	}
	// A full disk stays full.
	if n, err := f.Write([]byte("x")); n != 0 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("write on a full disk: n=%d err=%v", n, err)
	}
	if fsys.Injected() != 0 {
		t.Fatal("the write budget counted as an armed fault")
	}
	fsys.SetWriteBudget(-1)
	mustWrite(t, f, "Z")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := disk(t, path); string(got) != "1234abZ" {
		t.Fatalf("image %q, want %q", got, "1234abZ")
	}
}

// TestFaultFSFlipReads: the next n positioned reads each come back with
// exactly one bit flipped; the stored bytes are untouched.
func TestFaultFSFlipReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	fsys := NewFaultFS(OS(), 9)
	f := create(t, fsys, path)
	want := bytes.Repeat([]byte{0x5a}, 64)
	if _, err := f.Write(want); err != nil {
		t.Fatal(err)
	}
	fsys.FlipReads(2)
	for i := 0; i < 3; i++ {
		got := make([]byte, len(want))
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		flipped := 0
		for j := range got {
			for x := got[j] ^ want[j]; x != 0; x &= x - 1 {
				flipped++
			}
		}
		wantFlips := 0
		if i < 2 {
			wantFlips = 1
		}
		if flipped != wantFlips {
			t.Fatalf("read %d: %d bits flipped, want %d", i, flipped, wantFlips)
		}
	}
}

func TestFaultFSRenameRemoveLock(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaultFS(OS(), 1)
	tmp, err := fsys.CreateTemp(dir, ".t-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, tmp, "new")
	if err := tmp.Sync(); err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(dir, "target")
	old := create(t, fsys, target)
	mustWrite(t, old, "old-content")
	if err := old.Sync(); err != nil {
		t.Fatal(err)
	}
	// Rename reaches the disk at once and replaces the target's cached view.
	if err := fsys.Rename(tmp.Name(), target); err != nil {
		t.Fatal(err)
	}
	if got := disk(t, target); string(got) != "new" {
		t.Fatalf("renamed image %q, want %q", got, "new")
	}
	if got, err := ReadFile(fsys, target); err != nil || string(got) != "new" {
		t.Fatalf("view after rename %q (%v), want %q", got, err, "new")
	}
	if _, err := fsys.Stat(tmp.Name()); !os.IsNotExist(err) {
		t.Fatalf("the temp name survived the rename: %v", err)
	}
	if matches, err := Glob(fsys, dir, ".t-*.tmp"); err != nil || len(matches) != 0 {
		t.Fatalf("Glob after rename: %v, %v", matches, err)
	}
	if err := fsys.Remove(target); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Stat(target); !os.IsNotExist(err) {
		t.Fatalf("Stat of a removed file: %v", err)
	}
	if err := fsys.Remove(target); !os.IsNotExist(err) {
		t.Fatalf("removing a missing file: %v", err)
	}

	// Lock is exclusive until released, and never counted.
	ops := fsys.Ops()
	lockPath := filepath.Join(dir, "lock")
	held, err := fsys.Lock(lockPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Lock(lockPath); err == nil {
		t.Fatal("a second Lock on a held file succeeded")
	}
	if err := held.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := fsys.Lock(lockPath)
	if err != nil {
		t.Fatalf("Lock after release: %v", err)
	}
	again.Close()
	if fsys.Ops() != ops {
		t.Fatalf("Lock was counted: %d ops became %d", ops, fsys.Ops())
	}
	// O_TRUNC and O_APPEND are outside the model and say so.
	if _, err := fsys.OpenFile(target, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644); err == nil {
		t.Fatal("O_TRUNC accepted")
	}
}
