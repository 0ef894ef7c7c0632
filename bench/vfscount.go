package main

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/vfs"
)

// countFS decorates a vfs.FS with operation counts, byte counts, fsync
// latencies and, per file, the length that has been fsynced. It is the only
// source of the vfs.* metrics, and the fsynced lengths are what crashImage
// keeps: the bytes a crash would leave behind.
type countFS struct {
	inner vfs.FS
	tr    *tracer

	mu      sync.Mutex
	files   map[string]*fileLen // by path
	c       fsCounters
	fsyncMs []float64
}

// fileLen is one file's written and fsynced length.
type fileLen struct {
	size   int64
	synced int64
}

// fsCounters are the countable facts; subtract two snapshots to get a phase.
type fsCounters struct {
	fsyncs     int64 // file and directory syncs
	walFsyncs  int64
	writeCalls int64
	writeBytes int64
	walBytes   int64
	readBytes  int64
}

func (a fsCounters) sub(b fsCounters) fsCounters {
	return fsCounters{
		fsyncs:     a.fsyncs - b.fsyncs,
		walFsyncs:  a.walFsyncs - b.walFsyncs,
		writeCalls: a.writeCalls - b.writeCalls,
		writeBytes: a.writeBytes - b.writeBytes,
		walBytes:   a.walBytes - b.walBytes,
		readBytes:  a.readBytes - b.readBytes,
	}
}

func newCountFS(inner vfs.FS, tr *tracer) *countFS {
	return &countFS{inner: inner, tr: tr, files: make(map[string]*fileLen)}
}

func (c *countFS) counters() fsCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c
}

// takeFsyncMs returns the fsync latencies recorded so far and forgets them.
func (c *countFS) takeFsyncMs() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.fsyncMs
	c.fsyncMs = nil
	return out
}

func isWAL(path string) bool { return strings.HasPrefix(filepath.Base(path), "wal-") }

// track returns the length record of a path. A file that exists before the
// benchmark first sees it is taken as fully fsynced.
func (c *countFS) track(path string, existing int64) *fileLen {
	c.mu.Lock()
	defer c.mu.Unlock()
	fl := c.files[path]
	if fl == nil {
		fl = &fileLen{size: existing, synced: existing}
		c.files[path] = fl
	}
	return fl
}

func (c *countFS) wrap(f vfs.File, path string) vfs.File {
	var existing int64
	if info, err := f.Stat(); err == nil {
		existing = info.Size()
	}
	return &countFile{File: f, fs: c, path: path, len: c.track(path, existing)}
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return c.wrap(f, name), nil
}

func (c *countFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	f, err := c.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return c.wrap(f, f.Name()), nil
}

func (c *countFS) Rename(oldpath, newpath string) error {
	if err := c.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	c.mu.Lock()
	if fl := c.files[oldpath]; fl != nil {
		c.files[newpath] = fl
		delete(c.files, oldpath)
	}
	c.mu.Unlock()
	return nil
}

func (c *countFS) Remove(name string) error {
	if err := c.inner.Remove(name); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.files, name)
	c.mu.Unlock()
	return nil
}

func (c *countFS) ReadDir(name string) ([]fs.DirEntry, error) { return c.inner.ReadDir(name) }
func (c *countFS) Stat(name string) (fs.FileInfo, error)      { return c.inner.Stat(name) }
func (c *countFS) MkdirAll(path string, perm os.FileMode) error {
	return c.inner.MkdirAll(path, perm)
}
func (c *countFS) Lock(name string) (io.Closer, error) { return c.inner.Lock(name) }

func (c *countFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := c.inner.SyncDir(dir)
	c.synced(t0, "vfs.SyncDir", false)
	return err
}

// synced records one completed flush.
func (c *countFS) synced(t0 time.Time, name string, wal bool) {
	t1 := time.Now()
	c.mu.Lock()
	c.c.fsyncs++
	if wal {
		c.c.walFsyncs++
	}
	c.fsyncMs = append(c.fsyncMs, ms(t1.Sub(t0)))
	c.mu.Unlock()
	c.tr.record(0, 0, name, "vfs", t0, t1)
}

// crashImage copies the directory as a crash would leave it: every file cut
// back to its last-fsynced length. Killing a process keeps the operating
// system's cache, so the benchmark discards the unflushed bytes itself.
func (c *countFS) crashImage(dir, dst string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		c.mu.Lock()
		fl := c.files[path]
		c.mu.Unlock()
		if fl != nil && fl.synced < int64(len(data)) {
			data = data[:fl.synced]
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// countFile counts one open file's traffic. Offsets of sequential writes are
// not tracked: the durable layer appends, so a sequential write extends the
// file by its length.
type countFile struct {
	vfs.File
	fs   *countFS
	path string
	len  *fileLen
}

func (f *countFile) wrote(n int, end int64) {
	c := f.fs
	c.mu.Lock()
	c.c.writeCalls++
	c.c.writeBytes += int64(n)
	if isWAL(f.path) {
		c.c.walBytes += int64(n)
	}
	if end < 0 {
		end = f.len.size + int64(n)
	}
	if end > f.len.size {
		f.len.size = end
	}
	c.mu.Unlock()
}

func (f *countFile) read(n int) {
	f.fs.mu.Lock()
	f.fs.c.readBytes += int64(n)
	f.fs.mu.Unlock()
}

func (f *countFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.wrote(n, -1)
	f.fs.tr.record(0, 0, "vfs.Write", "vfs", t0, time.Now())
	return n, err
}

func (f *countFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.wrote(n, off+int64(n))
	f.fs.tr.record(0, 0, "vfs.WriteAt", "vfs", t0, time.Now())
	return n, err
}

func (f *countFile) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Read(p)
	f.read(n)
	f.fs.tr.record(0, 0, "vfs.Read", "vfs", t0, time.Now())
	return n, err
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.read(n)
	f.fs.tr.record(0, 0, "vfs.ReadAt", "vfs", t0, time.Now())
	return n, err
}

func (f *countFile) Truncate(size int64) error {
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	f.fs.mu.Lock()
	f.len.size = size
	if f.len.synced > size {
		f.len.synced = size
	}
	f.fs.mu.Unlock()
	return nil
}

func (f *countFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	if err == nil {
		f.fs.mu.Lock()
		f.len.synced = f.len.size
		f.fs.mu.Unlock()
	}
	f.fs.synced(t0, "vfs.Sync", isWAL(f.path))
	return err
}
