package durable

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vfs"
)

// TestPackPutTakesBackAFailedFrame: a short write leaves half a frame past
// the pack's end. Here that half embeds a plausible frame header with more
// bytes after it, so were it left behind a later, shorter frame, the walk
// would read it as a corrupt chunk mid-file — real damage, not debris. put
// cuts the pack back to where the failed frame began, so the next frame
// lands on a clean end and Scrub finds nothing.
func TestPackPutTakesBackAFailedFrame(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.NewFaultFS(vfs.OS(), 1)
	s, _, err := OpenFS(dir, fsys, 0)
	if err != nil {
		t.Fatal(err)
	}
	second := []byte("8 bytes!")
	first := bytes.Repeat([]byte{0xab}, 400)
	// Past the second frame's end, the first frame's landed half holds a
	// frame header of a 50-byte payload with a wrong CRC, then 106 more bytes.
	embedded := first[len(second):]
	copy(embedded[:16], "embedded chunk h")
	binary.LittleEndian.PutUint32(embedded[16:20], 50)
	binary.LittleEndian.PutUint32(embedded[20:24], 0xdeadbeef)

	fsys.FailAt(fsys.Ops()+1, vfs.FaultShortWrite)
	if _, err := s.pack.put(hashChunk(first), first); err == nil {
		t.Fatal("a short write reported success")
	}
	if _, err := s.pack.put(hashChunk(second), second); err != nil {
		t.Fatal(err)
	}
	if err := s.pack.sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, PackFile))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(packHeaderSize + packFrameOverhead + len(second)); info.Size() != want {
		t.Fatalf("pack holds %d bytes, want %d (the header and the second frame)", info.Size(), want)
	}
	rep, err := Scrub(dir, ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy() {
		t.Fatalf("the failed frame left debris: %+v", rep.Issues)
	}
}
