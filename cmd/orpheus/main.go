// Command orpheus is a small command-line front end to the OrpheusDB engine.
// Because the engine in this repository is embedded, the CLI operates on a
// session script: it reads commands from stdin (or -script), one per line,
// against a single engine instance — mirroring the interactive command-line
// workflow of Chapter 3. With -data <dir> the session is durable: the data
// directory's snapshot is loaded and its commit WAL replayed on startup, and
// every init / commit / drop is journaled (fsync on the commit boundary), so
// the session's datasets survive process restarts.
//
// Supported commands:
//
//	init <cvd> <csv-file> pk=<col[,col]>      initialize a CVD from a CSV file
//	checkout <cvd> -v <v1[,v2,...]> -t <tab>  materialize versions into a table
//	commit <cvd> -t <tab> -m <message>        commit a staging table
//	diff <cvd> <v1> <v2>                      records in one version but not the other
//	select <cvd> -v <v1[,v2,...]> [-w <col><op><value>]... [-limit n]
//	                                          versioned SELECT with predicates (repeat -w to
//	                                          AND them), evaluated vectorized over the
//	                                          columnar data table
//	ls                                        list CVDs
//	versions <cvd>                            list versions with metadata
//	optimize <cvd> [factor]                   run the partition optimizer (γ = factor·|R|)
//	run <cvd> <vquel query ...>               run a VQuel query
//	export <cvd> -v <v> -f <csv-file>         write a version to a CSV file
//	save <dir>                                export the engine to a fresh data directory
//	load <dir>                                replace the session with a data directory's state
//	log [cvd]                                 commit log (all CVDs, or one) plus durability status
//	checkpoint                                write an incremental checkpoint manifest (durable sessions)
//	epochs                                    list retained checkpoint epochs (durable sessions)
//	restore <epoch> <dir>                     export a retained epoch as a standalone directory
//	drop <cvd>                                drop a CVD
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cvd"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// session is the mutable CLI state: the engine plus the output streams. load
// swaps the engine wholesale.
type session struct {
	engine *core.Engine
	out    io.Writer
	errw   io.Writer
}

// run is the testable entry point: it executes the whole session and returns
// the process exit code (0 when every command succeeded, 1 when any failed,
// 2 on setup errors).
func run(argv []string, stdin io.Reader, stdout, stderr io.Writer) int {
	// fsck is a standalone subcommand, not a session command: it operates on
	// a closed data directory and must not open an engine over it first.
	if len(argv) > 0 && argv[0] == "fsck" {
		return runFsck(argv[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("orpheus", flag.ContinueOnError)
	fs.SetOutput(stderr)
	script := fs.String("script", "", "file with one command per line (default: stdin)")
	workers := fs.Int("workers", 0, "worker-pool size for parallel engine operations (0 = single-threaded)")
	dataDir := fs.String("data", "", "durable data directory (snapshot + commit WAL); replayed on start")
	keepEpochs := fs.Int("keep-epochs", 0, "checkpoint manifests retained for point-in-time restore (0 = default)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	in := stdin
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			fmt.Fprintln(stderr, "orpheus:", err)
			return 2
		}
		defer f.Close()
		in = f
	}
	var engine *core.Engine
	if *dataDir != "" {
		var err error
		engine, err = core.OpenDurable("orpheus", *dataDir, core.WithWorkers(*workers), core.WithCheckpointRetention(*keepEpochs))
		if err != nil {
			fmt.Fprintln(stderr, "orpheus:", err)
			return 2
		}
		warnRecovery(stderr, engine)
	} else {
		engine = core.Open("orpheus", core.WithWorkers(*workers))
	}
	s := &session{engine: engine, out: stdout, errw: stderr}
	defer func() { s.engine.Close() }()

	failed := false
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := s.execute(line); err != nil {
			fmt.Fprintf(stderr, "orpheus: %s: %v\n", line, err)
			failed = true
		}
	}
	if err := scanner.Err(); err != nil {
		// A scanner failure (read error, or a command line over the 1 MiB
		// buffer) silently ends the session early; that must not look like
		// success.
		fmt.Fprintln(stderr, "orpheus: reading commands:", err)
		return 2
	}
	if failed {
		return 1
	}
	return 0
}

func (s *session) execute(line string) error {
	fields := strings.Fields(line)
	cmd := fields[0]
	args := fields[1:]
	switch cmd {
	case "init":
		return s.cmdInit(args)
	case "checkout":
		return s.cmdCheckout(args)
	case "commit":
		return s.cmdCommit(args)
	case "diff":
		return s.cmdDiff(args)
	case "select":
		return s.cmdSelect(args)
	case "ls":
		for _, name := range s.engine.List() {
			fmt.Fprintln(s.out, name)
		}
		return nil
	case "versions":
		return s.cmdVersions(args)
	case "optimize":
		return s.cmdOptimize(args)
	case "run":
		return s.cmdRun(args)
	case "export":
		return s.cmdExport(args)
	case "save":
		return s.cmdSave(args)
	case "load":
		return s.cmdLoad(args)
	case "log":
		return s.cmdLog(args)
	case "checkpoint":
		return s.cmdCheckpoint(args)
	case "epochs":
		return s.cmdEpochs(args)
	case "restore":
		return s.cmdRestore(args)
	case "drop":
		return s.cmdDrop(args)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func (s *session) cmdInit(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: init <cvd> <csv-file> [pk=col,col]")
	}
	name, file := args[0], args[1]
	var pk []string
	for _, a := range args[2:] {
		if strings.HasPrefix(a, "pk=") {
			pk = strings.Split(strings.TrimPrefix(a, "pk="), ",")
		}
	}
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	// Infer a string-typed schema from the CSV header; numeric columns can be
	// coerced later by queries.
	header, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return fmt.Errorf("reading CSV header: %w", err)
	}
	cols := strings.Split(strings.TrimSpace(header), ",")
	schemaCols := make([]relstore.Column, 0, len(cols))
	for _, cname := range cols {
		schemaCols = append(schemaCols, relstore.Column{Name: cname, Type: relstore.TypeString})
	}
	schema, err := relstore.NewSchema(schemaCols, pk...)
	if err != nil {
		return err
	}
	if _, err := f.Seek(0, 0); err != nil {
		return err
	}
	_, err = s.engine.InitFromCSV(name, f, schema, cvd.Options{Author: os.Getenv("USER"), Message: "imported from " + file})
	if err == nil {
		fmt.Fprintf(s.out, "initialized CVD %s from %s\n", name, file)
	}
	return err
}

func parseVersions(v string) ([]vgraph.VersionID, error) {
	parts := strings.Split(v, ",")
	out := make([]vgraph.VersionID, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad version id %q", p)
		}
		out = append(out, vgraph.VersionID(n))
	}
	return out, nil
}

func flagValue(args []string, flagName string) string {
	for i, a := range args {
		if a == flagName && i+1 < len(args) {
			return args[i+1]
		}
	}
	return ""
}

// flagValues collects every occurrence of a repeatable flag.
func flagValues(args []string, flagName string) []string {
	var out []string
	for i, a := range args {
		if a == flagName && i+1 < len(args) {
			out = append(out, args[i+1])
		}
	}
	return out
}

func (s *session) cmdCheckout(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: checkout <cvd> -v <versions> -t <table>")
	}
	versions, err := parseVersions(flagValue(args, "-v"))
	if err != nil {
		return err
	}
	table := flagValue(args, "-t")
	tab, err := s.engine.Checkout(args[0], versions, table)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "checked out %d records into %s\n", tab.Len(), table)
	return nil
}

func (s *session) cmdCommit(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: commit <cvd> -t <table> -m <message>")
	}
	v, err := s.engine.Commit(args[0], flagValue(args, "-t"), flagValue(args, "-m"), os.Getenv("USER"))
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "committed version %d\n", v)
	return nil
}

func (s *session) cmdDiff(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: diff <cvd> <v1> <v2>")
	}
	a, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		return err
	}
	b, err := strconv.ParseInt(args[2], 10, 64)
	if err != nil {
		return err
	}
	d, err := s.engine.Diff(args[0], vgraph.VersionID(a), vgraph.VersionID(b))
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "only in v%d: %d records; only in v%d: %d records\n", a, len(d.OnlyInA), b, len(d.OnlyInB))
	return nil
}

// parsePredicate splits "<col><op><value>" (e.g. "coexpression>80") on the
// first comparison operator, preferring the two-character spellings.
func parsePredicate(p string) (col, op string, val relstore.Value, err error) {
	for _, cand := range []string{"<=", ">=", "!=", "<>", "==", "=", "<", ">"} {
		if i := strings.Index(p, cand); i > 0 {
			col = strings.TrimSpace(p[:i])
			op = cand
			raw := strings.TrimSpace(p[i+len(cand):])
			switch {
			case raw == "":
				return "", "", relstore.Value{}, fmt.Errorf("predicate %q has no value", p)
			default:
				if n, err := strconv.ParseInt(raw, 10, 64); err == nil {
					return col, op, relstore.Int(n), nil
				}
				if f, err := strconv.ParseFloat(raw, 64); err == nil {
					return col, op, relstore.Float(f), nil
				}
				return col, op, relstore.Str(strings.Trim(raw, `"'`)), nil
			}
		}
	}
	return "", "", relstore.Value{}, fmt.Errorf("predicate %q has no comparison operator", p)
}

// cmdSelect runs the versioned SELECT shortcut: predicates are compiled
// once (cvd.NamedPredicate / NamedPredicateAll for repeated -w flags) and
// pushed down to the vectorized column scan of the data table, with the
// multi-predicate form chaining selection refinements.
func (s *session) cmdSelect(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: select <cvd> -v <versions> [-w <col><op><value>]... [-limit n]")
	}
	c, err := s.engine.CVD(args[0])
	if err != nil {
		return err
	}
	versions, err := parseVersions(flagValue(args, "-v"))
	if err != nil {
		return err
	}
	limit := 0
	if ls := flagValue(args, "-limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil {
			return fmt.Errorf("bad limit %q", ls)
		}
		limit = n
	}
	var pred cvd.Predicate
	if ws := flagValues(args, "-w"); len(ws) > 0 {
		comparisons := make([]cvd.ColumnComparison, 0, len(ws))
		for _, w := range ws {
			col, op, val, err := parsePredicate(w)
			if err != nil {
				return err
			}
			comparisons = append(comparisons, cvd.ColumnComparison{Column: col, Op: op, Value: val})
		}
		var err error
		pred, err = c.NamedPredicateAll(comparisons)
		if err != nil {
			return err
		}
	}
	rows, err := c.ScanVersions(versions, pred, limit)
	if err != nil {
		return err
	}
	cols := c.Schema().ColumnNames()
	fmt.Fprintln(s.out, "version\trid\t"+strings.Join(cols, "\t"))
	for _, vr := range rows {
		cells := make([]string, len(vr.Row))
		for i, v := range vr.Row {
			cells[i] = v.AsString()
		}
		fmt.Fprintf(s.out, "v%d\t%d\t%s\n", vr.Version, vr.RID, strings.Join(cells, "\t"))
	}
	fmt.Fprintf(s.out, "(%d rows)\n", len(rows))
	return nil
}

func (s *session) cmdVersions(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: versions <cvd>")
	}
	c, err := s.engine.CVD(args[0])
	if err != nil {
		return err
	}
	for _, m := range c.AllMeta() {
		fmt.Fprintf(s.out, "v%d\tparents=%v\trecords=%d\tauthor=%s\tmsg=%s\n", m.ID, m.Parents, m.NumRecords, m.Author, m.Message)
	}
	return nil
}

func (s *session) cmdOptimize(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: optimize <cvd> [storage-factor]")
	}
	factor := 2.0
	if len(args) > 1 {
		f, err := strconv.ParseFloat(args[1], 64)
		if err != nil {
			return err
		}
		factor = f
	}
	rep, err := s.engine.Optimize(args[0], factor)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "partitioned into %d partitions (delta=%.3f, est. storage %d records, est. avg checkout %.1f records)\n",
		rep.Partitions, rep.Delta, rep.EstimatedStorage, rep.EstimatedAvgCost)
	return nil
}

func (s *session) cmdRun(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: run <cvd> <vquel query>")
	}
	res, err := s.engine.Query(args[0], strings.Join(args[1:], " "))
	if err != nil {
		return err
	}
	fmt.Fprintln(s.out, strings.Join(res.Columns, "\t"))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.AsString()
		}
		fmt.Fprintln(s.out, strings.Join(cells, "\t"))
	}
	return nil
}

func (s *session) cmdExport(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: export <cvd> -v <version> -f <csv-file>")
	}
	versions, err := parseVersions(flagValue(args, "-v"))
	if err != nil {
		return err
	}
	file := flagValue(args, "-f")
	c, err := s.engine.CVD(args[0])
	if err != nil {
		return err
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := c.CheckoutToCSV(versions, f); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "exported %v to %s\n", versions, file)
	return nil
}

// cmdSave exports the whole engine into a fresh data directory — one
// checkpoint — that `orpheus -data <dir>` (or `load <dir>`) can open later.
func (s *session) cmdSave(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: save <dir>")
	}
	if err := s.engine.Save(args[0]); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "saved %d CVDs to %s\n", len(s.engine.List()), args[0])
	return nil
}

// cmdLoad replaces the session's engine with the state recovered from a data
// directory (snapshot + WAL replay). The session stays durable against that
// directory afterwards.
func (s *session) cmdLoad(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: load <dir>")
	}
	loaded, err := core.OpenDurable("orpheus", args[0], core.WithWorkers(s.engine.Workers()))
	if err != nil {
		return err
	}
	warnRecovery(s.errw, loaded)
	s.engine.Close()
	s.engine = loaded
	fmt.Fprintf(s.out, "loaded %d CVDs from %s\n", len(loaded.List()), args[0])
	return nil
}

// warnRecovery reports, on stderr, anything crash recovery had to repair
// while opening a data directory — the events that dropped bytes (a torn
// append) or an entire stale WAL deserve a visible trace.
func warnRecovery(errw io.Writer, e *core.Engine) {
	rec := e.Recovery()
	if rec.TornTail {
		fmt.Fprintf(errw, "orpheus: recovery: truncated a torn WAL record in %s (a crashed append; all fully-committed versions were recovered)\n", e.DataDir())
	}
	if rec.StaleWAL {
		fmt.Fprintf(errw, "orpheus: recovery: discarded a stale WAL in %s (crash during checkpoint; its contents were already in the snapshot)\n", e.DataDir())
	}
}

// cmdLog prints the commit log — every version of every CVD (or one CVD)
// with parents, author, timestamp, and message — plus the session's
// durability binding.
func (s *session) cmdLog(args []string) error {
	if len(args) > 1 {
		return fmt.Errorf("usage: log [cvd]")
	}
	if dir := s.engine.DataDir(); dir != "" {
		fmt.Fprintf(s.out, "data directory: %s\n", dir)
	} else {
		fmt.Fprintln(s.out, "data directory: (none — in-memory session)")
	}
	names := s.engine.List()
	if len(args) == 1 {
		names = []string{args[0]}
	}
	sort.Strings(names)
	for _, name := range names {
		c, err := s.engine.CVD(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "== %s (%s, %d versions, %d records)\n", name, c.Model(), c.NumVersions(), c.NumRecords())
		for _, m := range c.AllMeta() {
			fmt.Fprintf(s.out, "v%d\t%s\tparents=%v\tauthor=%s\t%s\n",
				m.ID, m.CommitAt.Format("2006-01-02T15:04:05"), m.Parents, m.Author, m.Message)
		}
	}
	return nil
}

// cmdCheckpoint writes an incremental checkpoint manifest (durable sessions
// only): only chunks that changed since the previous checkpoint hit the disk.
func (s *session) cmdCheckpoint(args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("usage: checkpoint")
	}
	if err := s.engine.Checkpoint(); err != nil {
		return err
	}
	if stats, ok := s.engine.LastCheckpoint(); ok {
		fmt.Fprintf(s.out, "checkpointed epoch %d: %d/%d chunks written, %d bytes to disk (%d referenced chunk bytes) in %s\n",
			stats.Epoch, stats.ChunksWritten, stats.Chunks, stats.BytesWritten, stats.ChunkBytes, stats.Duration.Round(time.Millisecond))
	} else {
		fmt.Fprintln(s.out, "checkpointed")
	}
	return nil
}

// cmdEpochs lists the checkpoint epochs the data directory still retains
// manifests for — each is restorable with `restore <epoch> <dir>`.
func (s *session) cmdEpochs(args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("usage: epochs")
	}
	epochs, err := s.engine.RetainedEpochs()
	if err != nil {
		return err
	}
	for _, e := range epochs {
		fmt.Fprintln(s.out, e)
	}
	fmt.Fprintf(s.out, "(%d retained epochs)\n", len(epochs))
	return nil
}

// cmdRestore exports the engine state captured by a retained checkpoint epoch
// as a standalone directory, openable later with -data or load.
func (s *session) cmdRestore(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: restore <epoch> <dir>")
	}
	epoch, err := strconv.ParseUint(args[0], 10, 64)
	if err != nil {
		return fmt.Errorf("bad epoch %q", args[0])
	}
	if err := s.engine.ExportEpoch(epoch, args[1]); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "restored epoch %d to %s\n", epoch, args[1])
	return nil
}

func (s *session) cmdDrop(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: drop <cvd>")
	}
	if err := s.engine.Drop(args[0]); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "dropped %s\n", args[0])
	return nil
}
