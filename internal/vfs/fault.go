package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// FaultFS is a deterministic fault-injecting filesystem modeled on a kernel
// write-back page cache (the ALICE dirty-page model): every write, truncate,
// and file creation mutates only an in-memory view of the file; Sync flushes
// that view to the inner filesystem. The inner filesystem therefore always
// holds exactly the bytes that would survive a power cut, and a simulated
// crash needs only to torn-flush the dirty views and stop serving.
//
// Every durability-relevant operation (write, sync, truncate, rename,
// remove, dir-sync, file creation) increments a global operation counter.
// FailAt arms a one-shot fault at a counter value; the fault kind decides
// what happens when the counter hits it:
//
//   - FaultENOSPC: the operation fails with ENOSPC and has no effect.
//   - FaultShortWrite: a write persists only a torn prefix (half the buffer)
//     into the view and fails; other operations fail with a generic injected
//     error.
//   - FaultSyncErr: a sync reports failure without flushing; other
//     operations fail with a generic injected error.
//   - FaultCrash: the process "dies" — each dirty file's durable image keeps
//     a seeded-random prefix of the unflushed delta (modeling torn sector
//     writes), and every later operation on the FaultFS fails with
//     ErrCrashed. Reopen the real directory with OS() to model restart.
//
// Independently of FailAt, SetWriteBudget models a disk with n writable
// bytes left (persistent ENOSPC with a torn final write), and FlipReads arms
// single-bit corruption on upcoming positioned reads (silent bit rot).
//
// Model simplifications, chosen conservative for the code under test: file
// creation and rename reach the inner filesystem immediately (directory
// entries are never lost, only content is), and ReadDir/metadata listings
// delegate to the inner filesystem.
type FaultFS struct {
	inner FS

	mu       sync.Mutex
	rng      *rand.Rand
	nodes    map[string]*faultNode
	ops      int64
	failAt   int64
	kind     FaultKind
	injected int64
	down     bool
	budget   int64 // bytes writable before ENOSPC; < 0 = unlimited
	flips    int   // upcoming ReadAt calls to corrupt with one bit flip
}

// faultNode is the logical content of one file — the page-cache view.
type faultNode struct {
	view  []byte
	dirty bool // view differs from (or is newer than) the durable image
}

// FaultKind selects what an armed fault does when its operation index hits.
type FaultKind int

// Fault kinds; see FaultFS.
const (
	FaultNone FaultKind = iota
	FaultENOSPC
	FaultShortWrite
	FaultSyncErr
	FaultCrash
)

func (k FaultKind) String() string {
	switch k {
	case FaultENOSPC:
		return "enospc"
	case FaultShortWrite:
		return "shortwrite"
	case FaultSyncErr:
		return "syncerr"
	case FaultCrash:
		return "crash"
	default:
		return "none"
	}
}

// ErrCrashed is returned by every operation after a FaultCrash fired: the
// simulated process is dead and the directory must be reopened (through the
// real filesystem) to continue.
var ErrCrashed = errors.New("vfs: filesystem crashed (injected fault)")

// ErrInjected is the base error of non-crash injected faults; test code can
// errors.Is against it.
var ErrInjected = errors.New("vfs: injected fault")

// NewFaultFS wraps inner with fault injection. The seed drives every random
// decision (torn-flush prefixes, bit-flip positions), so a run is
// reproducible from (seed, arming calls).
func NewFaultFS(inner FS, seed int64) *FaultFS {
	return &FaultFS{
		inner:  inner,
		rng:    rand.New(rand.NewSource(seed)),
		nodes:  make(map[string]*faultNode),
		failAt: 0,
		budget: -1,
	}
}

// FailAt arms a one-shot fault of the given kind at operation index op
// (1-based: the op-th counted operation after the filesystem was created
// fails). op <= 0 disarms.
func (s *FaultFS) FailAt(op int64, kind FaultKind) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failAt, s.kind = op, kind
}

// Ops returns how many durability-relevant operations have been counted.
func (s *FaultFS) Ops() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops
}

// Injected returns how many faults have actually fired.
func (s *FaultFS) Injected() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}

// Crashed reports whether a FaultCrash has fired.
func (s *FaultFS) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

// SetWriteBudget limits the bytes future writes may persist before failing
// with ENOSPC (a full disk); the final write that crosses the budget lands a
// torn prefix, as a real filesystem running out of space does. n < 0 removes
// the limit.
func (s *FaultFS) SetWriteBudget(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.budget = n
}

// FlipReads arms single-bit corruption on the next n positioned reads —
// silent bit rot as a read path would observe it.
func (s *FaultFS) FlipReads(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flips = n
}

// Crash simulates the process dying right now: dirty views torn-flush and
// every later operation fails with ErrCrashed.
func (s *FaultFS) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.down {
		s.crashLocked()
	}
}

// stepLocked counts one operation and fires the armed fault if the counter
// hit it. isWrite/isSync select the fault behavior that matches the
// operation; the caller handles a returned errShortWrite by landing the torn
// prefix itself.
var errShortWrite = fmt.Errorf("%w: short write: %s", ErrInjected, io.ErrShortWrite)

func (s *FaultFS) stepLocked(isWrite, isSync bool) error {
	s.ops++
	if s.failAt <= 0 || s.ops != s.failAt {
		return nil
	}
	s.injected++
	switch s.kind {
	case FaultENOSPC:
		return fmt.Errorf("%w: %v after %d ops", ErrInjected, syscall.ENOSPC, s.ops)
	case FaultShortWrite:
		if isWrite {
			return errShortWrite
		}
		return fmt.Errorf("%w: input/output error at op %d", ErrInjected, s.ops)
	case FaultSyncErr:
		if isSync {
			return fmt.Errorf("%w: fsync failed at op %d", ErrInjected, s.ops)
		}
		return fmt.Errorf("%w: input/output error at op %d", ErrInjected, s.ops)
	case FaultCrash:
		s.crashLocked()
		return ErrCrashed
	}
	return nil
}

// crashLocked torn-flushes every dirty node and marks the filesystem dead.
// For each dirty file the durable image keeps the already-synced prefix plus
// a seeded-random number of the unflushed bytes; a pending truncation
// persists (or not) independently. Files tear in name order, so the seed
// decides the images whatever order the map yields them in.
func (s *FaultFS) crashLocked() {
	s.down = true
	names := make([]string, 0, len(s.nodes))
	for name, node := range s.nodes {
		if node.dirty {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		node := s.nodes[name]
		real, err := s.readInner(name)
		if err != nil || bytes.Equal(real, node.view) {
			continue
		}
		d := commonPrefix(real, node.view)
		keep := d
		if len(node.view) > d {
			keep = d + s.rng.Intn(len(node.view)-d+1)
		}
		length := len(real)
		if len(node.view) < len(real) && s.rng.Intn(2) == 0 {
			length = len(node.view) // the pending truncate made it to disk
		}
		img := append([]byte(nil), node.view[:keep]...)
		if keep < length && keep < len(real) {
			tail := real[keep:]
			if length-keep < len(tail) {
				tail = tail[:length-keep]
			}
			img = append(img, tail...)
		}
		s.writeInner(name, img)
	}
}

func commonPrefix(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// readInner reads a file's durable image; a missing file reads as nil.
func (s *FaultFS) readInner(name string) ([]byte, error) {
	f, err := Open(s.inner, name)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// writeInner replaces a file's durable image.
func (s *FaultFS) writeInner(name string, data []byte) error {
	f, err := s.inner.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(0); err != nil {
		return err
	}
	if len(data) > 0 {
		if _, err := f.WriteAt(data, 0); err != nil {
			return err
		}
	}
	return f.Sync()
}

// ---- FS implementation -------------------------------------------------------

func (s *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if flag&(os.O_TRUNC|os.O_APPEND) != 0 {
		return nil, fmt.Errorf("vfs: FaultFS does not model O_TRUNC/O_APPEND (open %s)", name)
	}
	name = filepath.Clean(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return nil, ErrCrashed
	}
	creating := false
	if flag&os.O_CREATE != 0 && s.nodes[name] == nil {
		if _, err := s.inner.Stat(name); err != nil {
			creating = true
		}
	}
	if creating {
		if err := s.stepLocked(false, false); err != nil {
			return nil, err
		}
	}
	f, err := s.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	f.Close()
	return s.handleLocked(name)
}

func (s *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return nil, ErrCrashed
	}
	if err := s.stepLocked(false, false); err != nil {
		return nil, err
	}
	f, err := s.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	name := filepath.Clean(f.Name())
	f.Close()
	return s.handleLocked(name)
}

// handleLocked loads (or reuses) the node for name and wraps it in a handle.
func (s *FaultFS) handleLocked(name string) (File, error) {
	node := s.nodes[name]
	if node == nil {
		data, err := s.readInner(name)
		if err != nil {
			return nil, err
		}
		node = &faultNode{view: data}
		s.nodes[name] = node
	}
	return &faultHandle{fs: s, name: name, node: node}, nil
}

func (s *FaultFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return ErrCrashed
	}
	if err := s.stepLocked(false, false); err != nil {
		return err
	}
	if err := s.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	if node, ok := s.nodes[oldpath]; ok {
		delete(s.nodes, oldpath)
		s.nodes[newpath] = node
	} else {
		// The rename may shadow a cached node of newpath with fresh content.
		delete(s.nodes, newpath)
	}
	return nil
}

func (s *FaultFS) Remove(name string) error {
	name = filepath.Clean(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return ErrCrashed
	}
	if err := s.stepLocked(false, false); err != nil {
		return err
	}
	delete(s.nodes, name)
	return s.inner.Remove(name)
}

func (s *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	s.mu.Lock()
	down := s.down
	s.mu.Unlock()
	if down {
		return nil, ErrCrashed
	}
	return s.inner.ReadDir(name)
}

func (s *FaultFS) Stat(name string) (fs.FileInfo, error) {
	name = filepath.Clean(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return nil, ErrCrashed
	}
	if node, ok := s.nodes[name]; ok {
		return fauxInfo{name: filepath.Base(name), size: int64(len(node.view))}, nil
	}
	return s.inner.Stat(name)
}

func (s *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	s.mu.Lock()
	down := s.down
	s.mu.Unlock()
	if down {
		return ErrCrashed
	}
	return s.inner.MkdirAll(path, perm)
}

func (s *FaultFS) SyncDir(dir string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return ErrCrashed
	}
	if err := s.stepLocked(false, true); err != nil {
		return err
	}
	return s.inner.SyncDir(dir)
}

// Lock delegates to the inner filesystem: advisory locking fences processes,
// not disks, so it is outside the fault model (and never counted).
func (s *FaultFS) Lock(name string) (io.Closer, error) {
	s.mu.Lock()
	down := s.down
	s.mu.Unlock()
	if down {
		return nil, ErrCrashed
	}
	return s.inner.Lock(name)
}

// ---- file handle -------------------------------------------------------------

// faultHandle is one open file: a cursor over the shared node. Multiple
// handles on the same path share the node, exactly as processes share the
// page cache.
type faultHandle struct {
	fs   *FaultFS
	name string
	node *faultNode
	pos  int64
}

func (h *faultHandle) Name() string { return h.name }

func (h *faultHandle) Close() error { return nil }

func (h *faultHandle) ReadAt(p []byte, off int64) (int, error) {
	s := h.fs
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return 0, ErrCrashed
	}
	view := h.node.view
	if off >= int64(len(view)) {
		return 0, io.EOF
	}
	n := copy(p, view[off:])
	if s.flips > 0 && n > 0 {
		s.flips--
		bit := s.rng.Intn(n * 8)
		p[bit/8] ^= 1 << (bit % 8)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *faultHandle) Read(p []byte) (int, error) {
	n, err := h.ReadAt(p, h.pos)
	h.pos += int64(n)
	return n, err
}

func (h *faultHandle) WriteAt(p []byte, off int64) (int, error) {
	s := h.fs
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return 0, ErrCrashed
	}
	if err := s.stepLocked(true, false); err != nil {
		if errors.Is(err, errShortWrite) {
			n := len(p) / 2
			s.applyWriteLocked(h.node, p[:n], off)
			return n, err
		}
		return 0, err
	}
	if s.budget >= 0 {
		if s.budget == 0 {
			return 0, fmt.Errorf("vfs: write to %s: %w (write budget exhausted)", h.name, syscall.ENOSPC)
		}
		if int64(len(p)) > s.budget {
			n := int(s.budget)
			s.budget = 0
			s.applyWriteLocked(h.node, p[:n], off)
			return n, fmt.Errorf("vfs: write to %s: %w (write budget exhausted, %d of %d bytes landed)", h.name, syscall.ENOSPC, n, len(p))
		}
		s.budget -= int64(len(p))
	}
	s.applyWriteLocked(h.node, p, off)
	return len(p), nil
}

func (h *faultHandle) Write(p []byte) (int, error) {
	n, err := h.WriteAt(p, h.pos)
	h.pos += int64(n)
	return n, err
}

// applyWriteLocked lands bytes in the node's view, zero-filling any gap.
func (s *FaultFS) applyWriteLocked(node *faultNode, p []byte, off int64) {
	if len(p) == 0 {
		return
	}
	end := off + int64(len(p))
	if int64(len(node.view)) < end {
		grown := make([]byte, end)
		copy(grown, node.view)
		node.view = grown
	}
	copy(node.view[off:], p)
	node.dirty = true
}

func (h *faultHandle) Truncate(size int64) error {
	s := h.fs
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return ErrCrashed
	}
	if err := s.stepLocked(false, false); err != nil {
		return err
	}
	node := h.node
	if size <= int64(len(node.view)) {
		node.view = node.view[:size]
	} else {
		grown := make([]byte, size)
		copy(grown, node.view)
		node.view = grown
	}
	node.dirty = true
	return nil
}

func (h *faultHandle) Sync() error {
	s := h.fs
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return ErrCrashed
	}
	if err := s.stepLocked(false, true); err != nil {
		return err
	}
	if !h.node.dirty {
		return nil
	}
	if err := s.writeInner(h.name, h.node.view); err != nil {
		return err
	}
	h.node.dirty = false
	return nil
}

func (h *faultHandle) Stat() (fs.FileInfo, error) {
	s := h.fs
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return nil, ErrCrashed
	}
	return fauxInfo{name: filepath.Base(h.name), size: int64(len(h.node.view))}, nil
}

// fauxInfo is the synthesized FileInfo of a buffered file: the size is the
// logical view length, not the (possibly stale) durable image's.
type fauxInfo struct {
	name string
	size int64
}

func (i fauxInfo) Name() string       { return i.name }
func (i fauxInfo) Size() int64        { return i.size }
func (i fauxInfo) Mode() fs.FileMode  { return 0o644 }
func (i fauxInfo) ModTime() time.Time { return time.Time{} }
func (i fauxInfo) IsDir() bool        { return false }
func (i fauxInfo) Sys() any           { return nil }
