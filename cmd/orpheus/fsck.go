package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/durable"
)

// runFsck implements `orpheus fsck [-repair] <data-dir>`: an offline
// integrity scrub of a data directory — chunk pack CRCs and content hashes,
// manifest reachability, WAL segment framing, then the open's own recovery
// (every retained checkpoint restored, every WAL record replayed) — with
// optional repair of what is safe to repair (torn tails and headers,
// unreferenced corrupt chunks, fallback to an older intact manifest). Exit
// status: 0 when the directory is healthy (or every issue was repaired), so
// the open recovers it; 1 when issues remain; 2 on usage or I/O errors.
func runFsck(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("orpheus fsck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	repair := fs.Bool("repair", false, "apply safe repairs (truncate torn tails, compact out unreferenced corrupt chunks, fall back to an older intact manifest)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: orpheus fsck [-repair] <data-dir>")
		return 2
	}
	dir := fs.Arg(0)
	rep, err := durable.Scrub(dir, durable.ScrubOptions{Repair: *repair})
	if err != nil {
		fmt.Fprintln(stderr, "orpheus fsck:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s: %d chunks, %d manifests, %d WAL segments checked\n",
		dir, rep.ChunksChecked, rep.ManifestsChecked, rep.SegmentsChecked)
	fmt.Fprintf(stdout, "live chunk payload: %s\n", rep.LiveBytes)
	for _, is := range rep.Issues {
		status := "ERROR"
		if is.Repaired {
			status = "REPAIRED"
		}
		fmt.Fprintf(stdout, "%s %s: %s", status, is.Kind, is.Detail)
		if len(is.Epochs) > 0 {
			fmt.Fprintf(stdout, " (epochs %v)", is.Epochs)
		}
		if is.Path != "" {
			fmt.Fprintf(stdout, " [%s]", is.Path)
		}
		fmt.Fprintln(stdout)
	}
	if rep.Repairs > 0 {
		fmt.Fprintf(stdout, "%d repair(s) applied\n", rep.Repairs)
	}
	if n := rep.Unrepaired(); n > 0 {
		fmt.Fprintf(stdout, "%d issue(s) remain\n", n)
		return 1
	}
	fmt.Fprintln(stdout, "clean")
	return 0
}
