package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cvd"
	"repro/internal/recset"
	"repro/internal/relstore"
	"repro/internal/server"
	"repro/internal/vgraph"
)

// readWL is read.inproc and read.http: 50 % single-version checkouts, 50 %
// selects, over a history that never changes while it is measured.
type readWL struct {
	cfg  runConfig
	http bool
	h    *history
	tr   *tracer
	res  *result

	e          *core.Engine
	c          *cvd.CVD
	optimizeMs float64

	srv     *http.Server
	api     *server.Server
	base    string
	hc      *http.Client
	retries atomic.Int64
	// response bytes and rows of traced selects, for server.resp_bytes_per_row
	respBytes, respRows atomic.Int64
}

const (
	hdrOp     = "X-Bench-Op"
	hdrParent = "X-Bench-Parent"
)

func runRead(cfg runConfig, overHTTP bool) (*result, error) {
	w := &readWL{cfg: cfg, http: overHTTP, tr: newTracer(), res: newResult(cfg)}
	hc := cfg.sz.big()
	if overHTTP {
		hc = cfg.sz.small()
	}
	w.h = generate(cfg.seed, hc)
	w.res.fingerprint = w.h.fingerprint()

	setup, err := repeatSetup(cfg.sz.setups, w.setup, w.teardown)
	if err != nil {
		return nil, err
	}
	defer w.teardown()
	res := w.res
	res.values["setup_s"] = setup
	res.values["heap_mb"] = heapMB()
	res.values["bytes_per_user_byte"] = float64(w.e.Database().StorageBytes()) / float64(w.h.userBytes())

	clients := newClients(cfg.seed)
	runPhase(clients, cfg.span(0.2), res, w.op) // warm-up

	share := 1.0
	if cfg.trace {
		share = 0.4
	}
	samples, elapsed := runPhase(clients, cfg.span(share), res, w.op)
	co, sel := durations(samples, opCheckout), durations(samples, opSelect)
	res.values["ops_per_s"] = float64(len(samples)) / elapsed.Seconds()
	res.timing("checkout_p50_ms", samples, opCheckout)
	res.timing("select_p50_ms", samples, opSelect)
	res.values["op_p50_ms"] = res.values["select_p50_ms"]
	res.values["window_spread"] = windowSpread(samples, opSelect, elapsed)
	res.note("window_spread (select, three windows): %.4f", res.values["window_spread"])

	if cfg.trace {
		w.tr.on.Store(true)
		traced, _ := runPhase(clients, cfg.span(0.4), res, w.op)
		w.tr.on.Store(false)
		w.layerMetrics(co, sel, traced)
		if err := w.tr.write(tracePath(cfg)); err != nil {
			return nil, err
		}
	}
	for _, c := range clients {
		w.closeSession(c)
	}
	w.fullChecks(clients)
	res.values["server.retries"] = float64(w.retries.Load())
	res.values["fail_ratio"] = float64(res.failed) / float64(res.attempted)
	return res, nil
}

func (w *readWL) setup() error {
	w.e = core.Open("bench")
	c, err := loadHistory(w.e, w.h)
	if err != nil {
		return err
	}
	w.c = c
	if !w.http {
		t0 := time.Now()
		// γ = 2|R|: the paper's LyreSplit configuration.
		if _, err := w.e.Optimize(cvdName, 2); err != nil {
			return err
		}
		w.optimizeMs = ms(time.Since(t0))
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.api = server.New(w.e, server.Config{})
	var handler http.Handler = w.api
	if w.cfg.trace {
		handler = &spanHandler{inner: w.api, tr: w.tr}
	}
	w.srv = &http.Server{Handler: handler}
	go w.srv.Serve(ln) // returns when teardown closes the server
	w.base = "http://" + ln.Addr().String()
	w.hc = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: numClients}}
	return nil
}

func (w *readWL) teardown() {
	if w.srv != nil {
		w.srv.Close()
		w.api.CloseSessions()
		w.hc.CloseIdleConnections()
		w.srv = nil
	}
	w.e, w.c = nil, nil
}

// spanHandler is mounted around server.New only in a traced run; it times the
// handler for requests that carry an operation id.
type spanHandler struct {
	inner http.Handler
	tr    *tracer
}

func (h *spanHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
	if op == 0 || !h.tr.enabled() {
		h.inner.ServeHTTP(rw, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
	id := h.tr.begin(op, parent, "server"+r.URL.Path, "server", time.Now())
	rw.Header().Set(hdrParent, strconv.FormatInt(id, 10)) // tells the client which span to hang replays under
	h.inner.ServeHTTP(rw, r)
	h.tr.end(id, time.Now())
}

// op is one operation of the mix. The cheap answer check (row count against
// the oracle) runs on every operation; the full check runs on every
// sampleEvery-th, after the phase.
func (w *readWL) op(c *client, in opInput) {
	v := int(in.pick % int64(len(w.h.versions)))
	sampled := c.n%int64(w.cfg.sz.sampleEvery) == 0
	var opID int64
	if w.tr.enabled() && c.n%int64(w.cfg.sz.traceEvery) == 0 {
		opID = w.tr.newOp()
	}
	var (
		kind      opKind
		got, want int
		d         time.Duration
		err       error
	)
	if in.kind == 0 {
		kind, want = opCheckout, len(w.h.versions[v].rows)
		got, d, err = w.checkout(c, v, opID)
	} else {
		kind, want = opSelect, w.h.selectCount(v, in.bound, w.cfg.sz.selectLimit)
		var rows []record
		rows, d, err = w.selectRows(v, in.bound, opID)
		got = len(rows)
	}
	c.sample(kind, d, false)
	c.attempted++
	if err != nil || got != want {
		c.failed++
		if err == nil {
			err = fmt.Errorf("%d rows, oracle has %d", got, want)
		}
		fmt.Fprintf(w.cfg.log, "%s: %s of version %d failed: %v\n", w.cfg.workload, kind, v+1, err)
	}
	if sampled {
		c.checks = append(c.checks, in)
	}
}

// checkout times one single-version checkout and returns its row count. The
// staging table is discarded afterwards, outside the timed call.
func (w *readWL) checkout(c *client, v int, opID int64) (int, time.Duration, error) {
	if !w.http {
		name := "co" + strconv.Itoa(c.id)
		t0 := time.Now()
		tab, err := w.e.Checkout(cvdName, []vgraph.VersionID{vid(v)}, name)
		t1 := time.Now()
		if err != nil {
			return 0, t1.Sub(t0), err
		}
		w.c.DiscardCheckout(name)
		if opID != 0 {
			top := w.tr.record(opID, 0, "core.Checkout", "core", t0, t1)
			replayCheckout(w.tr, w.e, w.c, top, vid(v), false)
			w.tr.complete(opID, opCheckout)
		}
		return tab.Len(), t1.Sub(t0), nil
	}
	if c.session == "" {
		var out struct{ Session string }
		if _, _, err := w.post("/v1/session", struct{}{}, &out, 0, 0); err != nil {
			return 0, 0, err
		}
		c.session, c.staged = out.Session, 0
	}
	var out struct{ Records int }
	req := map[string]interface{}{"session": c.session, "cvd": cvdName, "versions": []int64{int64(vid(v))}, "table": "t" + strconv.Itoa(c.staged)}
	t0 := time.Now()
	top := w.tr.begin(opID, 0, "client.checkout", "client", t0)
	_, handler, err := w.post("/v1/checkout", req, &out, opID, top)
	t1 := time.Now()
	w.tr.end(top, t1)
	if err != nil {
		return 0, t1.Sub(t0), err
	}
	if opID != 0 {
		replayCheckout(w.tr, w.e, w.c, handler, vid(v), true)
		w.tr.complete(opID, opCheckout)
	}
	if c.staged++; c.staged >= sessionChurn {
		w.closeSession(c)
	}
	return out.Records, t1.Sub(t0), nil
}

func (w *readWL) closeSession(c *client) {
	if c.session != "" {
		w.post("/v1/session/close", map[string]string{"session": c.session}, &struct{}{}, 0, 0)
		c.session = ""
	}
}

// selectRows times `a01 > bound LIMIT n` on one version and returns the rows.
func (w *readWL) selectRows(v int, bound int64, opID int64) ([]record, time.Duration, error) {
	if !w.http {
		t0 := time.Now()
		rows, err := selectInproc(w.e, v, bound, w.cfg.sz.selectLimit)
		t1 := time.Now()
		if err != nil {
			return nil, t1.Sub(t0), err
		}
		if opID != 0 {
			top := w.tr.record(opID, 0, "core.select", "core", t0, t1)
			w.replaySelect(top, v, bound, false)
			w.tr.complete(opID, opSelect)
		}
		recs, err := versionedRecords(rows)
		return recs, t1.Sub(t0), err
	}
	var out struct {
		Rows []struct{ Values []int64 }
	}
	req := map[string]interface{}{
		"cvd": cvdName, "versions": []int64{int64(vid(v))}, "limit": w.cfg.sz.selectLimit,
		"where": []map[string]interface{}{{"column": selectCol, "op": ">", "value": bound}},
	}
	t0 := time.Now()
	top := w.tr.begin(opID, 0, "client.select", "client", t0)
	n, handler, err := w.post("/v1/select", req, &out, opID, top)
	t1 := time.Now()
	w.tr.end(top, t1)
	if err != nil {
		return nil, t1.Sub(t0), err
	}
	recs := make([]record, len(out.Rows))
	for i, r := range out.Rows {
		if len(r.Values) != numCols {
			return nil, t1.Sub(t0), fmt.Errorf("select row has %d values", len(r.Values))
		}
		copy(recs[i][:], r.Values)
	}
	if opID != 0 {
		w.respBytes.Add(int64(n))
		w.respRows.Add(int64(len(recs)))
		w.replaySelect(handler, v, bound, true)
		w.tr.complete(opID, opSelect)
	}
	return recs, t1.Sub(t0), nil
}

// selectInproc is the select as an in-process caller issues it: look the CVD
// up through the façade, compile the predicate, scan.
func selectInproc(e *core.Engine, v int, bound int64, limit int) ([]cvd.VersionedRow, error) {
	c, err := e.CVD(cvdName)
	if err != nil {
		return nil, err
	}
	pred, err := c.NamedPredicate(selectCol, ">", relstore.Int(bound))
	if err != nil {
		return nil, err
	}
	return c.ScanVersions([]vgraph.VersionID{vid(v)}, pred, limit)
}

func versionedRecords(rows []cvd.VersionedRow) ([]record, error) {
	out := make([]record, len(rows))
	for i, r := range rows {
		rec, ok := rowRecord(r.Row)
		if !ok {
			return nil, fmt.Errorf("select row %d is not %d integers", i, numCols)
		}
		out[i] = rec
	}
	return out, nil
}

// post sends one JSON request and decodes the reply. A 503 shed or a
// transport error is retried (and counted) up to three times; a shed that
// persists is a failed operation. It returns the reply's size and, in a
// traced run, the handler's span id.
func (w *readWL) post(path string, body, out interface{}, opID, parent int64) (int, int64, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, 0, err
	}
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		if attempt > 0 {
			w.retries.Add(1)
		}
		req, err := http.NewRequest(http.MethodPost, w.base+path, bytes.NewReader(payload))
		if err != nil {
			return 0, 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		if opID != 0 {
			req.Header.Set(hdrOp, strconv.FormatInt(opID, 10))
			req.Header.Set(hdrParent, strconv.FormatInt(parent, 10))
		}
		resp, err := w.hc.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			lastErr = fmt.Errorf("%s: shed with 503", path)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return len(data), 0, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
		}
		handler, _ := strconv.ParseInt(resp.Header.Get(hdrParent), 10, 64)
		return len(data), handler, json.Unmarshal(data, out)
	}
	return 0, 0, lastErr
}

// replayCheckout re-issues a sampled checkout at each lower layer with the
// same input and lays the measured calls under parent. withCore: the operation
// went over HTTP, so the in-process call is itself a replay.
func replayCheckout(tr *tracer, e *core.Engine, c *cvd.CVD, parent int64, v vgraph.VersionID, withCore bool) {
	const name = "replay_co"
	versions := []vgraph.VersionID{v}
	if withCore {
		t0 := time.Now()
		if _, err := e.Checkout(cvdName, versions, name); err != nil {
			return
		}
		d := time.Since(t0)
		c.DiscardCheckout(name)
		parent = tr.replayed(parent, call{"core", "core.Checkout", d})[0]
	}
	t0 := time.Now()
	if _, err := c.Checkout(versions, name); err != nil {
		return
	}
	dCVD := time.Since(t0)
	c.DiscardCheckout(name)
	parent = tr.replayed(parent, call{"cvd", "cvd.Checkout", dCVD})[0]

	// What cvd.Checkout does below itself: build the version's record set,
	// probe the backing table with it, gather the hits, index the result.
	rl, err := c.Rlist()
	if err != nil {
		return
	}
	var (
		ids  []int64
		data *relstore.Table
	)
	err = c.WithShared(func() error {
		ids = c.Bipartite().RecordSet(v).Slice()
		tab, ok := e.Database().Table(rl.PartitionTableName(v))
		if !ok {
			return fmt.Errorf("no backing table for version %d", v)
		}
		data = tab
		return nil
	})
	if err != nil {
		return
	}
	t0 = time.Now()
	set := recset.FromSorted(ids)
	dSet := time.Since(t0)
	t0 = time.Now()
	sel, err := data.SelectRIDSet("rid", set)
	dProbe := time.Since(t0)
	if err != nil {
		return
	}
	t0 = time.Now()
	out := data.GatherInto(name, sel)
	dGather := time.Since(t0)
	t0 = time.Now()
	_ = out.BuildIndexOn("rid") // an index nobody reads: only its cost matters
	dIndex := time.Since(t0)
	tr.replayed(parent,
		call{"recset", "recset.FromSorted", dSet},
		call{"relstore", "relstore.SelectRIDSet", dProbe},
		call{"relstore", "relstore.GatherInto", dGather},
		call{"relstore", "relstore.BuildIndexOn", dIndex})
}

// replaySelect is replayCheckout for a select.
func (w *readWL) replaySelect(parent int64, v int, bound int64, withCore bool) {
	if withCore {
		t0 := time.Now()
		if _, err := selectInproc(w.e, v, bound, w.cfg.sz.selectLimit); err != nil {
			return
		}
		parent = w.tr.replayed(parent, call{"core", "core.select", time.Since(t0)})[0]
	}
	pred, err := w.c.NamedPredicate(selectCol, ">", relstore.Int(bound))
	if err != nil {
		return
	}
	t0 := time.Now()
	if _, err := w.c.ScanVersions([]vgraph.VersionID{vid(v)}, pred, w.cfg.sz.selectLimit); err != nil {
		return
	}
	parent = w.tr.replayed(parent, call{"cvd", "cvd.ScanVersions", time.Since(t0)})[0]

	// Below ScanVersions: filter the master data table's column vector,
	// gather the matching rids, intersect with the version's record set.
	// The data table is named <cvd>_data by the split-by-rlist model.
	data, ok := w.e.Database().Table(cvdName + "_data")
	if !ok {
		return
	}
	gt, _ := relstore.ParseCmpOp(">")
	t0 = time.Now()
	sel, err := data.FilterVec(selectCol, gt, relstore.Int(bound))
	dFilter := time.Since(t0)
	if err != nil {
		return
	}
	t0 = time.Now()
	rids, err := data.GatherInts("rid", sel)
	dRids := time.Since(t0)
	if err != nil {
		return
	}
	t0 = time.Now()
	match := recset.FromSlice(rids)
	dFrom := time.Since(t0)
	vset := w.c.Bipartite().RecordSet(vid(v)) // no commit runs during a read workload
	t0 = time.Now()
	recset.And(vset, match)
	dAnd := time.Since(t0)
	w.tr.replayed(parent,
		call{"relstore", "relstore.FilterVec", dFilter},
		call{"relstore", "relstore.GatherInts", dRids},
		call{"recset", "recset.FromSlice", dFrom},
		call{"recset", "recset.And", dAnd})
}

// fullChecks re-issues every sampled operation outside the timed phases and
// compares the whole answer with the oracle.
func (w *readWL) fullChecks(clients []*client) {
	var scanned, returned int64
	for _, c := range clients {
		for _, in := range c.checks {
			v := int(in.pick % int64(len(w.h.versions)))
			want := w.h.rows(v)
			var err error
			if in.kind == 0 {
				err = w.checkCheckout(v, want)
			} else {
				before := w.e.Database().Stats()
				var got []record
				got, _, err = w.selectRows(v, in.bound, 0)
				if err == nil {
					after := w.e.Database().Stats()
					scanned += before.Diff(after).TotalReads()
					returned += int64(len(got))
					err = checkSelect(want, got, in.bound, w.cfg.sz.selectLimit)
				}
			}
			w.res.attempted++
			if err != nil {
				w.res.failed++
				fmt.Fprintf(w.cfg.log, "%s: full check of version %d failed: %v\n", w.cfg.workload, v+1, err)
			}
		}
	}
	if returned > 0 {
		w.res.values["relstore.rows_scanned_per_row_returned"] = float64(scanned) / float64(returned)
	}
}

// checkCheckout checks one version out again and compares every row.
func (w *readWL) checkCheckout(v int, want []record) error {
	const name = "check"
	var tab *relstore.Table
	if w.http {
		var s struct{ Session string }
		if _, _, err := w.post("/v1/session", struct{}{}, &s, 0, 0); err != nil {
			return err
		}
		defer w.post("/v1/session/close", map[string]string{"session": s.Session}, &struct{}{}, 0, 0)
		req := map[string]interface{}{"session": s.Session, "cvd": cvdName, "versions": []int64{int64(vid(v))}, "table": name}
		if _, _, err := w.post("/v1/checkout", req, &struct{}{}, 0, 0); err != nil {
			return err
		}
		// The server stages a session's table as <session>__<table>.
		var ok bool
		if tab, ok = w.e.Database().Table(s.Session + "__" + name); !ok {
			return fmt.Errorf("staging table of session %s not found", s.Session)
		}
	} else {
		var err error
		if tab, err = w.e.Checkout(cvdName, []vgraph.VersionID{vid(v)}, name); err != nil {
			return err
		}
		defer w.c.DiscardCheckout(name)
	}
	got := tableRecords(tab)
	if w.cfg.corrupt && len(got) > 0 {
		got[0][1] ^= 1
	}
	return sameRecords(got, want)
}

// layerMetrics turns the traced phase into the per-layer numbers.
func (w *readWL) layerMetrics(untracedCheckout, untracedSelect []float64, traced []sample) {
	res := w.res
	co, sel := w.tr.layerSelf(opCheckout), w.tr.layerSelf(opSelect)
	p := func(m map[string][]float64, layer string) float64 { return median(m[layer]) }

	res.values["client.self_ms"] = p(sel, "client")
	res.values["server.self_ms"] = p(sel, "server")
	res.values["core.self_ms"] = p(co, "core")
	res.values["cvd.checkout_ms"] = p(co, "cvd")
	res.values["cvd.scan_ms"] = p(sel, "cvd")
	res.values["recset.self_ms"] = p(sel, "recset")
	res.values["relstore.self_ms"] = p(sel, "relstore")
	for name, target := range map[string]string{
		"server/v1/select":      "server.handler_ms",
		"core.Checkout":         "core.call_ms",
		"cvd.Checkout":          "cvd.call_ms",
		"relstore.FilterVec":    "relstore.filter_ms",
		"relstore.GatherInto":   "relstore.gather_ms",
		"relstore.SelectRIDSet": "relstore.probe_ms",
		"recset.And":            "recset.and_ms",
	} {
		res.values[target] = median(w.tr.spanMs(name))
	}
	if rows := w.respRows.Load(); rows > 0 {
		res.values["server.resp_bytes_per_row"] = float64(w.respBytes.Load()) / float64(rows)
	}
	res.values["trace.gap_checkout"] = layerGap(res, "checkout", co)
	res.values["trace.gap_select"] = layerGap(res, "select", sel)

	tracedSel := median(durations(traced, opSelect))
	if base := median(untracedSelect); base > 0 {
		res.values["trace_overhead"] = tracedSel / base
	}
	res.note("traced phase: checkout p50 %.4f ms (untraced %.4f), select p50 %.4f ms (untraced %.4f)",
		median(durations(traced, opCheckout)), median(untracedCheckout), tracedSel, median(untracedSelect))

	// Static facts of the physical layout.
	rl, err := w.c.Rlist()
	if err != nil {
		return
	}
	var scanned, held, setBytes int64
	for v := range w.h.versions {
		if tab, ok := w.e.Database().Table(rl.PartitionTableName(vid(v))); ok {
			scanned += int64(tab.Len())
		}
		held += int64(len(w.h.versions[v].rows))
		setBytes += int64(len(w.c.Bipartite().RecordSet(vid(v)).AppendBinary(nil)))
	}
	res.values["partition.optimize_ms"] = w.optimizeMs
	res.values["partition.storage_ratio"] = float64(rl.DataRecordCount()) / float64(w.c.NumRecords())
	res.values["partition.checkout_records_ratio"] = float64(scanned) / float64(held)
	res.values["recset.bytes_per_version"] = float64(setBytes) / float64(len(w.h.versions))
}

// layerGap sums the layers' median self times for one kind of operation and
// returns how far the sum is from the median of the whole, as a share of it.
func layerGap(res *result, kind string, layers map[string][]float64) float64 {
	total := median(layers["total"])
	if total == 0 {
		return 0
	}
	var sum float64
	line := ""
	for _, layer := range []string{"client", "server", "core", "cvd", "relstore", "recset", "durable", "vfs"} {
		if v, ok := layers[layer]; ok {
			m := median(v)
			sum += m
			line += fmt.Sprintf(" %s %.4f", layer, m)
		}
	}
	res.note("traced %s (n=%d): layer self-time medians [ms]%s; sum %.4f vs operation p50 %.4f", kind, len(layers["total"]), line, sum, total)
	return (sum - total) / total
}
