package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cvd"
	"repro/internal/durable"
	"repro/internal/relstore"
	"repro/internal/vfs"
	"repro/internal/vgraph"
)

// durWL is ingest.durable and recover.durable: commits to one durable CVD
// through a counting filesystem, real fsync, default group commit.
type durWL struct {
	cfg  runConfig
	solo bool // one client: recover.durable
	h    *history
	tr   *tracer
	res  *result
	dir  string
	fs   *countFS

	e   *core.Engine
	c   *cvd.CVD
	raw cvd.Journal // the store's own journal, as OpenDurable attached it

	mu      sync.Mutex
	newest  []vgraph.VersionID // the newest acknowledged versions
	acked   []vgraph.VersionID // every commit the engine acknowledged
	deltas  map[vgraph.VersionID]delta
	ckptMs  []float64
	ckpts   []durable.CheckpointStats
	nextKey atomic.Int64
	commits atomic.Int64 // acknowledged so far
	newRecs atomic.Int64 // records those commits added

	ckptBusy atomic.Bool
	ckptWG   sync.WaitGroup
}

// delta is the oracle's record of one acknowledged commit: its parent and the
// row images it appended or replaced.
type delta struct {
	parent vgraph.VersionID
	adds   []record
}

func newDurWL(cfg runConfig) *durWL {
	w := &durWL{cfg: cfg, tr: newTracer(), res: newResult(cfg), deltas: make(map[vgraph.VersionID]delta)}
	w.h = generate(cfg.seed, cfg.sz.small())
	w.res.fingerprint = w.h.fingerprint()
	return w
}

// setup loads the seed history into a fresh data directory and checkpoints it.
func (w *durWL) setup() error {
	dir, err := os.MkdirTemp(w.cfg.out, "data-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.fs = newCountFS(vfs.OS(), w.tr)
	w.acked, w.deltas = nil, make(map[vgraph.VersionID]delta)
	w.commits.Store(0)
	w.newRecs.Store(0)
	if err := w.open(); err != nil {
		return err
	}
	if w.c, err = loadHistory(w.e, w.h); err != nil {
		return err
	}
	if err := w.e.Checkpoint(); err != nil {
		return err
	}
	w.attach()
	w.newest = nil
	for v := len(w.h.versions) - w.cfg.sz.newestWindow; v < len(w.h.versions); v++ {
		w.newest = append(w.newest, vid(v))
	}
	w.nextKey.Store(w.h.nextKey)
	return nil
}

func (w *durWL) teardown() {
	if w.e != nil {
		w.e.Close()
		w.e = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

// open opens the data directory through the counting filesystem.
func (w *durWL) open() error {
	e, err := core.OpenDurable("bench", w.dir, core.WithFS(w.fs))
	if err != nil {
		return err
	}
	w.e = e
	if len(e.List()) > 0 {
		if w.c, err = e.CVD(cvdName); err != nil {
			return err
		}
		w.attach()
	}
	return nil
}

// attach remembers the journal OpenDurable attached and, in a traced run,
// puts the timing decorator in front of it.
func (w *durWL) attach() {
	w.c.LockExclusive()
	w.raw, _ = w.c.JournalLocked()
	w.c.UnlockExclusive()
	w.decorate(true)
}

// decorate swaps the timing journal in or out. The engine checkpoints in the
// background only while every CVD's journal is the store itself, so the
// decorator steps aside around a checkpoint.
func (w *durWL) decorate(on bool) {
	if !w.cfg.trace {
		return
	}
	if on {
		w.c.SetJournal(&timedJournal{inner: w.raw, tr: w.tr})
	} else {
		w.c.SetJournal(w.raw)
	}
}

// timedJournal is a cvd.Journal that times the store's LogCommit. The commit
// message carries the operation and the span to hang it under.
type timedJournal struct {
	inner cvd.Journal
	tr    *tracer
}

func (j *timedJournal) LogCommit(name string, parents []vgraph.VersionID, rows []relstore.Row, rowSchema relstore.Schema, msg, author string, at time.Time) error {
	op, parent := parseOpMessage(msg)
	if op == 0 || !j.tr.enabled() {
		return j.inner.LogCommit(name, parents, rows, rowSchema, msg, author, at)
	}
	t0 := time.Now()
	err := j.inner.LogCommit(name, parents, rows, rowSchema, msg, author, at)
	j.tr.record(op, parent, "durable.LogCommit", "durable", t0, time.Now())
	j.tr.complete(op, opCommit)
	return err
}

func opMessage(op, parent int64) string {
	return "op=" + strconv.FormatInt(op, 10) + " span=" + strconv.FormatInt(parent, 10)
}

func parseOpMessage(msg string) (op, parent int64) {
	fmt.Sscanf(msg, "op=%d span=%d", &op, &parent)
	return op, parent
}

// commitOp is one ingest operation: check one of the newest versions out,
// append rows and update others in the staging table, commit it. Checkout and
// commit are timed as separate samples. It returns how many commits have been
// acknowledged, this one included, or 0 if it failed.
func (w *durWL) commitOp(c *client, in opInput) int64 {
	// Parents cycle through the newest versions, oldest of them first. A
	// seeded pick made the version chain, and with it the size of the
	// versions committed, deeper on some seeds than on others (8–10 % on
	// commit and replay time).
	w.mu.Lock()
	parent := w.newest[int(c.n%int64(len(w.newest)))]
	w.mu.Unlock()
	name := "wd" + strconv.Itoa(c.id)

	c.attempted++
	t0 := time.Now()
	tab, err := w.e.Checkout(cvdName, []vgraph.VersionID{parent}, name)
	t1 := time.Now()
	c.sample(opCheckout, t1.Sub(t0), false)
	if err != nil {
		c.failed++
		fmt.Fprintf(w.cfg.log, "%s: checkout of version %d failed: %v\n", w.cfg.workload, parent, err)
		return 0
	}
	// With a second client a replayed checkout would queue behind that
	// client's commit, which the checkout it replays did not; only the
	// single-client workload decomposes its checkouts.
	if w.solo && w.tr.enabled() && c.n%int64(w.cfg.sz.traceEvery) == 0 {
		op := w.tr.newOp()
		top := w.tr.record(op, 0, "core.Checkout", "core", t0, t1)
		replayCheckout(w.tr, w.e, w.c, top, parent, false)
		w.tr.complete(op, opCheckout)
	}
	adds, err := w.edit(tab, rand.New(rand.NewSource(in.edit)))
	if err != nil {
		c.failed++
		w.c.DiscardCheckout(name)
		fmt.Fprintf(w.cfg.log, "%s: editing the staging table failed: %v\n", w.cfg.workload, err)
		return 0
	}

	c.attempted++
	var op, top int64
	stalled := w.ckptBusy.Load()
	t2 := time.Now()
	if w.tr.enabled() {
		op = w.tr.newOp()
		top = w.tr.begin(op, 0, "core.Commit", "cvd", t2)
	}
	v, err := w.e.Commit(cvdName, name, opMessage(op, top), "bench")
	t3 := time.Now()
	w.tr.end(top, t3)
	c.sample(opCommit, t3.Sub(t2), stalled || w.ckptBusy.Load())
	if err != nil {
		c.failed++
		w.c.DiscardCheckout(name)
		fmt.Fprintf(w.cfg.log, "%s: commit on version %d failed: %v\n", w.cfg.workload, parent, err)
		return 0
	}
	w.mu.Lock()
	w.deltas[v] = delta{parent: parent, adds: adds}
	w.acked = append(w.acked, v)
	w.newest = append(w.newest[1:], v)
	w.mu.Unlock()
	w.newRecs.Add(int64(len(adds)))
	return w.commits.Add(1)
}

// edit updates distinct rows of a staging table in place and appends new
// ones, and returns the row images the commit adds.
func (w *durWL) edit(tab *relstore.Table, rng *rand.Rand) ([]record, error) {
	sz := w.cfg.sz
	adds := make([]record, 0, sz.updateRows+sz.appendRows)
	fill := func(rec *record) {
		for j := 1; j < numCols; j++ {
			rec[j] = rng.Int63n(attrRange)
		}
	}
	touched := make(map[int]bool, sz.updateRows)
	for len(touched) < sz.updateRows && len(touched) < tab.Len() {
		pos := rng.Intn(tab.Len())
		if touched[pos] {
			continue
		}
		touched[pos] = true
		var rec record
		rec[0] = tab.IntAt(pos, 1)
		fill(&rec)
		for j := 1; j < numCols; j++ {
			tab.Set(pos, j+1, relstore.Int(rec[j]))
		}
		adds = append(adds, rec)
	}
	for i := 0; i < sz.appendRows; i++ {
		var rec record
		rec[0] = w.nextKey.Add(1)
		fill(&rec)
		// The rid column is stripped at commit; a negative one keeps the
		// staging table's rid index unique.
		row := append(relstore.Row{relstore.Int(int64(-1 - i))}, toRow(&rec)...)
		if err := tab.Insert(row); err != nil {
			return nil, err
		}
		adds = append(adds, rec)
	}
	return adds, nil
}

// checkpointAsync starts a background checkpoint unless one is in flight. A
// goroutine waits for its result; ckptWG.Wait joins it.
func (w *durWL) checkpointAsync(c *client) {
	if !w.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	w.decorate(false)
	t0 := time.Now()
	done, err := w.e.CheckpointAsync()
	w.decorate(true)
	if err != nil {
		w.ckptBusy.Store(false)
		c.attempted++
		c.failed++
		fmt.Fprintf(w.cfg.log, "%s: checkpoint failed: %v\n", w.cfg.workload, err)
		return
	}
	w.ckptWG.Add(1)
	go func() {
		defer w.ckptWG.Done()
		err := <-done
		w.checkpointed(time.Since(t0), err)
		w.ckptBusy.Store(false)
	}()
}

func (w *durWL) checkpointed(d time.Duration, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.res.attempted++
	if err != nil {
		w.res.failed++
		fmt.Fprintf(w.cfg.log, "%s: checkpoint failed: %v\n", w.cfg.workload, err)
		return
	}
	w.ckptMs = append(w.ckptMs, ms(d))
	if st, ok := w.e.LastCheckpoint(); ok {
		w.ckpts = append(w.ckpts, st)
	}
}

// phaseCounts is what a phase added to the run's counters.
type phaseCounts struct {
	fs      fsCounters
	commits int64
	newRecs int64
}

func (w *durWL) counts() phaseCounts {
	return phaseCounts{fs: w.fs.counters(), commits: w.commits.Load(), newRecs: w.newRecs.Load()}
}

func (a phaseCounts) sub(b phaseCounts) phaseCounts {
	return phaseCounts{fs: a.fs.sub(b.fs), commits: a.commits - b.commits, newRecs: a.newRecs - b.newRecs}
}

func runIngest(cfg runConfig) (*result, error) {
	w := newDurWL(cfg)
	setup, err := repeatSetup(cfg.sz.setups, w.setup, w.teardown)
	if err != nil {
		return nil, err
	}
	defer w.teardown()
	res := w.res
	res.values["setup_s"] = setup
	res.values["heap_mb"] = heapMB()

	// WAL bytes per user byte are taken over the first walCommits commits
	// after set-up, warm-up included: versions grow with every commit, so a
	// window that a faster run gets further through would read higher.
	loaded := w.counts()
	var window phaseCounts
	op := func(c *client, in opInput) {
		n := w.commitOp(c, in)
		if n == int64(cfg.sz.walCommits) {
			window = w.counts().sub(loaded)
		}
		if n > 0 && n%int64(cfg.sz.ckptEvery) == 0 {
			w.checkpointAsync(c)
		}
	}
	clients := newClients(cfg.seed)
	runPhase(clients, cfg.span(0.2), res, op) // warm-up
	w.fs.takeFsyncMs()

	share := 1.0
	if cfg.trace {
		share = 0.4
	}
	before := w.counts()
	samples, elapsed := runPhase(clients, cfg.span(share), res, op)
	got := w.counts().sub(before)
	commit := durations(samples, opCommit)
	res.values["ops_per_s"] = float64(len(commit)) / elapsed.Seconds()
	res.timing("checkout_p50_ms", samples, opCheckout)
	res.timing("commit_p50_ms", samples, opCommit)
	res.values["op_p50_ms"] = res.values["commit_p50_ms"]
	if window.commits == 0 { // the run was too short to fill the window
		window = w.counts().sub(loaded)
	}
	res.values["wal_bytes_per_user_byte"] = ratio(window.fs.walBytes, window.newRecs*recordSize)
	res.values["bytes_per_user_byte"] = res.values["wal_bytes_per_user_byte"]
	res.values["window_spread"] = windowSpread(samples, opCommit, elapsed)
	res.note("window_spread (commit, three windows): %.4f", res.values["window_spread"])
	w.ioMetrics(got, samples)

	if cfg.trace {
		w.tr.on.Store(true)
		traced, _ := runPhase(clients, cfg.span(0.4), res, op)
		w.tr.on.Store(false)
		w.ckptWG.Wait()
		solo, _ := runPhase(clients[:1], cfg.span(0.2), res, op)
		w.layerMetrics(commit, traced)
		res.values["cvd.commit_wait_ms"] = median(commit) - median(durations(solo, opCommit))
		res.note("commit p50 with one client: %.4f ms (n=%d)", median(durations(solo, opCommit)), len(durations(solo, opCommit)))
		if err := w.tr.write(tracePath(cfg)); err != nil {
			return nil, err
		}
	}
	w.ckptWG.Wait()
	w.checkpointMetrics()
	if err := w.verify(); err != nil {
		return nil, err
	}
	res.values["fail_ratio"] = float64(res.failed) / float64(res.attempted)
	return res, nil
}

// runRecover is recover.durable: one client, no timers, fixed counts, so that
// bytes and flushes repeat exactly. Every iteration is
//
//	n commits → Checkpoint (timed) → Close → OpenDurable (timed: restore only)
//	→ n commits → Close → OpenDurable (timed: restore + n-commit WAL replay)
//
// The number of iterations is the whole number of seconds asked for.
func runRecover(cfg runConfig) (*result, error) {
	w := newDurWL(cfg)
	w.solo = true
	setup, err := repeatSetup(cfg.sz.setups, w.setup, w.teardown)
	if err != nil {
		return nil, err
	}
	defer w.teardown()
	res := w.res
	res.values["setup_s"] = setup
	res.values["heap_mb"] = heapMB()

	iterations := int(cfg.seconds + 0.5)
	if iterations < 2 {
		iterations = 2
	}
	c := newClients(cfg.seed)[0]
	c.phaseStart = time.Now()
	commits := func() {
		for i := 0; i < cfg.sz.commitsPerPhase; i++ {
			w.commitOp(c, c.draw())
			c.n++
		}
	}
	reopen := func(kind opKind) error {
		if err := w.e.Close(); err != nil {
			return err
		}
		op := w.tr.newOp()
		t0 := time.Now()
		id := w.tr.begin(op, 0, "core.OpenDurable", "durable", t0)
		err := w.open()
		t1 := time.Now()
		w.tr.end(id, t1)
		if id != 0 {
			w.tr.complete(op, kind)
		}
		c.attempted++
		c.sample(kind, t1.Sub(t0), false)
		return err
	}
	var diskBytes, diskRecs int64
	iteration := func() error {
		commits()
		w.decorate(false)
		op := w.tr.newOp()
		t0 := time.Now()
		id := w.tr.begin(op, 0, "core.Checkpoint", "core", t0)
		err := w.e.Checkpoint()
		t1 := time.Now()
		w.tr.end(id, t1)
		w.decorate(true)
		c.sample(opCheckpoint, t1.Sub(t0), false)
		w.checkpointed(t1.Sub(t0), err)
		if err != nil {
			return err
		}
		if st, ok := w.e.LastCheckpoint(); ok && id != 0 {
			// The store reports how long its half of the checkpoint took;
			// it ends when Checkpoint returns.
			w.tr.record(op, id, "durable.CompleteCheckpoint (reported)", "durable", t1.Add(-st.Duration), t1)
			w.tr.complete(op, opCheckpoint)
		}
		diskBytes, diskRecs = dirBytes(w.dir), int64(len(w.h.recs))+w.newRecs.Load()
		if err := reopen(opRestore); err != nil {
			return err
		}
		commits()
		return reopen(opRecover)
	}
	repeat := func(n int) error {
		for i := 0; i < n; i++ {
			if err := iteration(); err != nil {
				return err
			}
		}
		return nil
	}
	// A traced run does the first half of its iterations untraced; the
	// end-to-end style numbers come from those.
	untraced := iterations
	if cfg.trace {
		untraced = iterations / 2
	}
	before := w.counts()
	w.fs.takeFsyncMs()
	if err := repeat(untraced); err != nil {
		return nil, err
	}
	split, untracedCounts := len(c.samples), w.counts().sub(before)
	w.tr.on.Store(cfg.trace)
	err = repeat(iterations - untraced)
	w.tr.on.Store(false)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(c.phaseStart)
	all := c.samples
	samples := all[:split]
	res.attempted += c.attempted
	res.failed += c.failed

	res.values["ops_per_s"] = float64(len(all)-len(durations(all, opCheckout))) / elapsed.Seconds()
	res.timing("checkout_p50_ms", samples, opCheckout)
	res.timing("commit_p50_ms", samples, opCommit)
	res.timing("checkpoint_p50_ms", samples, opCheckpoint)
	res.timing("recover_p50_ms", samples, opRecover)
	res.timing("durable.restore_ms", samples, opRestore)
	res.values["op_p50_ms"] = res.values["recover_p50_ms"]
	res.values["durable.replay_ms_per_commit"] = (res.values["recover_p50_ms"] - res.values["durable.restore_ms"]) / float64(cfg.sz.commitsPerPhase)
	res.values["wal_bytes_per_user_byte"] = ratio(untracedCounts.fs.walBytes, untracedCounts.newRecs*recordSize)
	res.values["disk_bytes_per_user_byte"] = ratio(diskBytes, diskRecs*recordSize)
	res.values["bytes_per_user_byte"] = res.values["disk_bytes_per_user_byte"]
	res.values["window_spread"] = windowSpread(all, opRecover, elapsed)
	res.note("window_spread (recover, three windows): %.4f", res.values["window_spread"])
	w.ioMetrics(untracedCounts, samples)
	w.checkpointMetrics()
	if cfg.trace {
		w.layerMetrics(durations(samples, opCommit), all[split:])
		if err := w.tr.write(tracePath(cfg)); err != nil {
			return nil, err
		}
	}
	if err := w.verify(); err != nil {
		return nil, err
	}
	res.values["fail_ratio"] = float64(res.failed) / float64(res.attempted)
	return res, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil && !ent.IsDir() {
			n += info.Size()
		}
	}
	return n
}

// ioMetrics reports what one phase did to the filesystem.
func (w *durWL) ioMetrics(got phaseCounts, samples []sample) {
	res := w.res
	res.values["vfs.fsync_count"] = float64(got.fs.fsyncs)
	res.values["vfs.write_calls"] = float64(got.fs.writeCalls)
	res.values["vfs.write_bytes"] = float64(got.fs.writeBytes)
	res.values["vfs.read_bytes"] = float64(got.fs.readBytes)
	fsyncs := summarize(w.fs.takeFsyncMs())
	res.values["vfs.fsync_p50_ms"] = fsyncs.p50
	res.note("vfs.fsync_p50_ms: %s", fsyncs)
	res.values["durable.wal_bytes_per_commit"] = ratio(got.fs.walBytes, got.commits)
	res.values["durable.commits_per_fsync"] = ratio(got.commits, got.fs.walFsyncs)
	var stalled, free []float64
	for _, s := range samples {
		if s.kind == opCommit {
			if s.stalled {
				stalled = append(stalled, ms(s.dur))
			} else {
				free = append(free, ms(s.dur))
			}
		}
	}
	if len(stalled) > 0 && len(free) > 0 {
		res.values["durable.ckpt_stall_ratio"] = median(stalled) / median(free)
		res.note("commits while a checkpoint was in flight: %d of %d", len(stalled), len(stalled)+len(free))
	}
}

func (w *durWL) checkpointMetrics() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.ckpts) == 0 {
		return
	}
	var durs []float64
	var written, chunks, chunksWritten int64
	for _, st := range w.ckpts {
		durs = append(durs, ms(st.Duration))
		written += st.BytesWritten
		chunks += int64(st.Chunks)
		chunksWritten += int64(st.ChunksWritten)
	}
	w.res.values["durable.ckpt_ms"] = median(durs)
	w.res.values["durable.ckpt_bytes_written"] = float64(written) / float64(len(w.ckpts))
	w.res.values["durable.ckpt_chunks_reused_ratio"] = 1 - float64(chunksWritten)/float64(chunks)
	w.res.note("checkpoints: %d, end to end p50 %.4f ms", len(w.ckpts), median(w.ckptMs))
}

// layerMetrics turns the traced phase into the per-layer numbers.
func (w *durWL) layerMetrics(untracedCommit []float64, traced []sample) {
	res := w.res
	w.tr.adoptVFS()
	co, commit := w.tr.layerSelf(opCheckout), w.tr.layerSelf(opCommit)
	res.values["core.self_ms"] = median(co["core"])
	res.values["cvd.checkout_ms"] = median(co["cvd"])
	res.values["cvd.commit_apply_ms"] = median(commit["cvd"])
	res.values["durable.self_ms"] = median(commit["durable"])
	res.values["vfs.self_ms"] = median(commit["vfs"])
	for name, target := range map[string]string{
		"core.Checkout":         "core.call_ms",
		"cvd.Checkout":          "cvd.call_ms",
		"relstore.GatherInto":   "relstore.gather_ms",
		"relstore.SelectRIDSet": "relstore.probe_ms",
		"durable.LogCommit":     "durable.logcommit_ms",
	} {
		res.values[target] = median(w.tr.spanMs(name))
	}
	res.values["trace.gap_checkout"] = layerGap(res, "checkout", co)
	res.values["trace.gap_commit"] = layerGap(res, "commit", commit)
	for _, kind := range []opKind{opCheckpoint, opRestore, opRecover} {
		if layers := w.tr.layerSelf(kind); len(layers) > 0 {
			layerGap(res, kind.String(), layers)
		}
	}
	tracedCommit := median(durations(traced, opCommit))
	if base := median(untracedCommit); base > 0 {
		res.values["trace_overhead"] = tracedCommit / base
	}
	res.note("traced phase: commit p50 %.4f ms (untraced %.4f)", tracedCommit, median(untracedCommit))
}

// oracleRows materializes what the oracle says version v holds: the seed
// version at the bottom of its chain, with every later commit's row images
// laid over it by key.
func (w *durWL) oracleRows(v vgraph.VersionID) []record {
	var chain []delta
	for int(v) > len(w.h.versions) {
		d := w.deltas[v]
		chain = append(chain, d)
		v = d.parent
	}
	byKey := make(map[int64]record)
	for _, r := range w.h.rows(int(v) - 1) {
		byKey[r.key()] = r
	}
	for i := len(chain) - 1; i >= 0; i-- {
		for _, r := range chain[i].adds {
			byKey[r.key()] = r
		}
	}
	out := make([]record, 0, len(byKey))
	for _, r := range byKey {
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].key() < out[b].key() })
	return out
}

// verify is the durability check. It copies the directory as a crash would
// leave it, opens the copy, and requires every acknowledged commit to check
// out of it exactly as it does out of the live engine: all of them by a hash
// of every cell, every sampleEvery-th bit for bit and against the oracle.
func (w *durWL) verify() error {
	w.ckptWG.Wait()
	image := w.dir + "-crash"
	defer os.RemoveAll(image)
	if err := w.fs.crashImage(w.dir, image); err != nil {
		return err
	}
	t0 := time.Now()
	crashed, err := core.OpenDurable("crashed", image)
	w.res.attempted++
	if err != nil {
		w.res.failed++
		fmt.Fprintf(w.cfg.log, "%s: the crash image does not open: %v\n", w.cfg.workload, err)
		return nil
	}
	defer crashed.Close()
	w.res.note("crash image: %d bytes, opened in %.4f ms, %d acknowledged commits to find", dirBytes(image), ms(time.Since(t0)), len(w.acked))

	fail := func(v vgraph.VersionID, err error) {
		w.res.failed++
		fmt.Fprintf(w.cfg.log, "%s: version %d after the crash: %v\n", w.cfg.workload, v, err)
	}
	all := make([]vgraph.VersionID, 0, len(w.h.versions)+len(w.acked))
	for v := range w.h.versions {
		all = append(all, vid(v)) // the load's commits were acknowledged too
	}
	all = append(all, w.acked...)
	for i, v := range all {
		w.res.attempted++
		live, err1 := cellHash(w.e, v)
		lost, err2 := cellHash(crashed, v)
		switch {
		case err1 != nil:
			fail(v, err1)
		case err2 != nil:
			fail(v, err2)
		case live != lost:
			fail(v, fmt.Errorf("checks out differently from the live engine"))
		}
		if i%w.cfg.sz.sampleEvery != 0 {
			continue
		}
		w.res.attempted++
		if err := w.bitIdentical(crashed, v); err != nil {
			fail(v, err)
		}
	}
	return nil
}

func (w *durWL) bitIdentical(crashed *core.Engine, v vgraph.VersionID) error {
	live, err := core.CheckoutVersionRows(w.e, cvdName, v, "live")
	if err != nil {
		return err
	}
	lost, err := core.CheckoutVersionRows(crashed, cvdName, v, "crash")
	if err != nil {
		return err
	}
	if err := core.RowsBitIdentical("crash image", live, lost); err != nil {
		return err
	}
	got := make([]record, len(lost))
	for i, r := range lost {
		rec, ok := rowRecord(r[1:]) // rid first
		if !ok {
			return fmt.Errorf("row %d is not %d integers", i, numCols)
		}
		got[i] = rec
	}
	sort.Slice(got, func(a, b int) bool { return got[a].key() < got[b].key() })
	if w.cfg.corrupt && len(got) > 0 {
		got[0][1] ^= 1
	}
	return sameRecords(got, w.oracleRows(v))
}

// cellHash checks a version out and hashes every cell, rid included.
func cellHash(e *core.Engine, v vgraph.VersionID) (uint64, error) {
	const name = "cellhash"
	tab, err := e.Checkout(cvdName, []vgraph.VersionID{v}, name)
	if err != nil {
		return 0, err
	}
	f := fnv.New64a()
	for i := 0; i < tab.Len(); i++ {
		for j := 0; j <= numCols; j++ {
			hashInts(f, tab.IntAt(i, j))
		}
	}
	if c, err := e.CVD(cvdName); err == nil {
		c.DiscardCheckout(name)
	}
	return f.Sum64(), nil
}

func tracePath(cfg runConfig) string {
	return filepath.Join(cfg.out, "trace_"+strings.ReplaceAll(cfg.workload, "/", "_")+".json")
}
