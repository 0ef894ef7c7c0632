package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cvd"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

const (
	cvdName = "bench"
	// numClients equals the cores of the reference box: more clients than
	// cores measures run-queue wait, not the engine.
	numClients = 2
	// Select bounds are drawn from [selectLo, selectLo+selectSpan): with
	// attributes uniform in [0, attrRange) that is 4–6 % selectivity.
	selectLo   = 940000
	selectSpan = 20000
	// sessionChurn is how many HTTP checkouts a client stages before it
	// closes its session, the only way the API offers to discard them.
	sessionChurn = 16
)

// sizes is one scale of the benchmark. "full" is the reference; "tiny" exists
// for the smoke test and is never a baseline.
type sizes struct {
	bigRecords, bigMods     int // read.inproc: larger than L2
	smallRecords, smallMods int // the other three: fits cache
	branches, perBranch     int
	appendRows, updateRows  int // one ingest commit
	newestWindow            int // ingest checks out one of this many newest versions
	ckptEvery               int // ingest.durable: commits between CheckpointAsync calls
	walCommits              int // ingest.durable: commits that WAL bytes per user byte are taken over
	commitsPerPhase         int // recover.durable: commits before a checkpoint and in a WAL tail
	sampleEvery             int // 1-in-N operations get the full answer check after the phase
	traceEvery              int // 1-in-N operations of a traced phase get spans and replays
	selectLimit             int
	setups                  int // set-ups per run; setup_s is their median
}

var scales = map[string]sizes{
	"full": {
		bigRecords: 64000, bigMods: 500,
		smallRecords: 13000, smallMods: 50,
		branches: 20, perBranch: 5,
		appendRows: 100, updateRows: 30, newestWindow: 8,
		ckptEvery: 40, walCommits: 100, commitsPerPhase: 5,
		sampleEvery: 64, traceEvery: 4, selectLimit: 1000,
		// A full-scale set-up takes 4–11 s and is steady to a few percent;
		// repeating it would spend the driver's budget on nothing else.
		setups: 1,
	},
	"tiny": {
		bigRecords: 240, bigMods: 8,
		smallRecords: 200, smallMods: 4,
		branches: 4, perBranch: 3,
		appendRows: 5, updateRows: 2, newestWindow: 4,
		ckptEvery: 5, walCommits: 10, commitsPerPhase: 2,
		sampleEvery: 4, traceEvery: 2, selectLimit: 1000,
		setups: 3,
	},
}

func (s sizes) big() histConfig {
	return histConfig{records: s.bigRecords, branches: s.branches, perBranch: s.perBranch, mods: s.bigMods, updateShare: 0.30, deleteShare: 0.02}
}

func (s sizes) small() histConfig {
	return histConfig{records: s.smallRecords, branches: s.branches, perBranch: s.perBranch, mods: s.smallMods, updateShare: 0.30, deleteShare: 0.02}
}

// runConfig is one invocation of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string // name of sz
	sz       sizes
	out      string    // data directories and trace files go here
	log      io.Writer // progress, not results
	corrupt  bool      // smoke-test hook: damage every fully checked checkout
}

func (c runConfig) span(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// result is what one run measured. values holds every metric the run can
// name; main picks the end-to-end or the per-layer set out of it.
type result struct {
	workload    string
	attempted   int64
	failed      int64
	values      map[string]float64
	notes       []string
	fingerprint uint64 // of the generated dataset
	opHash      uint64 // of the first operations of every client
}

func newResult(cfg runConfig) *result {
	return &result{workload: cfg.workload, values: make(map[string]float64), opHash: opSequenceHash(cfg.seed)}
}

func (r *result) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// timing stores the latency of one kind of operation under name — the
// quiet-stretch median, see quietP50 — and the whole distribution's median,
// tail and count as a note.
func (r *result) timing(name string, samples []sample, kind opKind) {
	r.values[name] = quietP50(samples, kind)
	r.note("%s: quiet-stretch p50 %.4f ms; all samples: %s", name, r.values[name], summarize(durations(samples, kind)))
}

// opInput is one operation's random draws. Every client draws all of them for
// every operation, whichever the workload uses, so the sequence depends on
// the seed and the client alone.
type opInput struct {
	kind  uint8 // 0 checkout, 1 select (read workloads)
	pick  int64 // which version
	bound int64 // select: a01 > bound
	edit  int64 // ingest: seed of the row edits
}

// client is one closed loop: it issues its next operation only after the
// previous one returned. Its goroutine owns it during a phase.
type client struct {
	id         int
	rng        *rand.Rand
	n          int64 // operations issued so far
	phaseStart time.Time
	samples    []sample
	attempted  int64
	failed     int64
	checks     []opInput // every sampleEvery-th input, checked in full after the phase
	session    string    // read.http
	staged     int
}

func newClients(seed int64) []*client {
	cs := make([]*client, numClients)
	for i := range cs {
		cs[i] = &client{id: i, rng: rand.New(rand.NewSource(seed*7919 + int64(i) + 1))}
	}
	return cs
}

func (c *client) draw() opInput {
	return opInput{
		kind:  uint8(c.rng.Intn(2)),
		pick:  c.rng.Int63(),
		bound: selectLo + c.rng.Int63n(selectSpan),
		edit:  c.rng.Int63(),
	}
}

func (c *client) sample(kind opKind, d time.Duration, stalled bool) {
	c.samples = append(c.samples, sample{kind: kind, at: time.Since(c.phaseStart), dur: d, stalled: stalled})
}

// opSequenceHash hashes the first draws of every client for a seed.
func opSequenceHash(seed int64) uint64 {
	f := fnv.New64a()
	for _, c := range newClients(seed) {
		for i := 0; i < 256; i++ {
			in := c.draw()
			hashInts(f, int64(in.kind), in.pick, in.bound, in.edit)
		}
	}
	return f.Sum64()
}

// runPhase runs every client's loop for d and returns the samples taken, the
// phase's real length, and moves the clients' attempt counts into res.
func runPhase(clients []*client, d time.Duration, res *result, op func(*client, opInput)) ([]sample, time.Duration) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		c.phaseStart, c.samples = start, nil
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Since(start) < d {
				op(c, c.draw())
				c.n++
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, c := range clients {
		all = append(all, c.samples...)
		res.attempted += c.attempted
		res.failed += c.failed
		c.attempted, c.failed, c.samples = 0, 0, nil
	}
	return all, elapsed
}

func vid(index int) vgraph.VersionID { return vgraph.VersionID(index + 1) }

// loadHistory bulk-loads a generated history through the engine's public
// commit path; it is what setup_s mostly measures.
func loadHistory(e *core.Engine, h *history) (*cvd.CVD, error) {
	rc := &rowCache{h: h}
	sc := schema()
	c, err := e.Init(cvdName, sc, rc.version(0), cvd.Options{Author: "bench", Message: "load"})
	if err != nil {
		return nil, err
	}
	for v := 1; v < len(h.versions); v++ {
		got, err := c.Commit([]vgraph.VersionID{vid(h.versions[v].parent)}, rc.version(v), sc, "load", "bench")
		if err != nil {
			return nil, fmt.Errorf("loading version %d: %w", v+1, err)
		}
		if got != vid(v) {
			return nil, fmt.Errorf("loading version %d: engine numbered it %d", v+1, got)
		}
	}
	return c, nil
}

// repeatSetup sets up n times, tearing down all but the last, and returns the
// median set-up time.
func repeatSetup(n int, setup func() error, teardown func()) (float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// heapMB is the heap in use after a forced collection.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// tableRecords reads a checked-out table (rid first, then the data columns)
// back into records sorted by key.
func tableRecords(t *relstore.Table) []record {
	out := make([]record, t.Len())
	for i := range out {
		for j := 0; j < numCols; j++ {
			out[i][j] = t.IntAt(i, j+1)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].key() < out[b].key() })
	return out
}

func rowRecord(r relstore.Row) (rec record, ok bool) {
	if len(r) != numCols {
		return rec, false
	}
	for j, v := range r {
		if v.Type != relstore.TypeInt {
			return rec, false
		}
		rec[j] = v.I
	}
	return rec, true
}

func sameRecords(got, want []record) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("row %d (key %d) differs from the oracle", i, want[i].key())
		}
	}
	return nil
}

// checkSelect validates a select answer against the naive evaluator: every
// row is a row of the version that satisfies the predicate, none twice, and
// as many as the limit allows.
func checkSelect(want []record, got []record, bound int64, limit int) error {
	matches := 0
	for i := range want {
		if want[i][1] > bound {
			matches++
		}
	}
	if limit > 0 && matches > limit {
		matches = limit
	}
	if len(got) != matches {
		return fmt.Errorf("%d rows, oracle has %d", len(got), matches)
	}
	seen := make(map[int64]bool, len(got))
	for _, g := range got {
		i := sort.Search(len(want), func(k int) bool { return want[k].key() >= g.key() })
		if i == len(want) || want[i] != g {
			return fmt.Errorf("row with key %d is not in the version", g.key())
		}
		if g[1] <= bound {
			return fmt.Errorf("row with key %d does not satisfy the predicate", g.key())
		}
		if seen[g.key()] {
			return fmt.Errorf("row with key %d returned twice", g.key())
		}
		seen[g.key()] = true
	}
	return nil
}
