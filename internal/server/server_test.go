package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cvd"
	"repro/internal/relstore"
)

// post sends a JSON body and decodes the JSON answer into out (when non-nil),
// returning the status code.
func post(t *testing.T, ts *httptest.Server, path string, body, out interface{}) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

func get(t *testing.T, ts *httptest.Server, path string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

func openSession(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	var sr sessionResponse
	if code := post(t, ts, "/v1/session", struct{}{}, &sr); code != http.StatusOK {
		t.Fatalf("session open: status %d", code)
	}
	if sr.Session == "" {
		t.Fatal("session open returned no id")
	}
	return sr.Session
}

var proteinInit = initRequest{
	CVD: "protein",
	Columns: []columnSpec{
		{Name: "protein1", Type: "string"},
		{Name: "protein2", Type: "string"},
		{Name: "coexpression", Type: "int"},
	},
	PK: []string{"protein1", "protein2"},
	Rows: [][]interface{}{
		{"ENSP1", "ENSP2", 80},
		{"ENSP1", "ENSP3", 40},
	},
	Message: "seed",
	Author:  "alice",
}

// TestVersioningOverHTTP drives the full client workflow — init, checkout
// into a session, commit, select with a predicate, log — over the wire.
func TestVersioningOverHTTP(t *testing.T) {
	e := core.Open("t")
	ts := httptest.NewServer(New(e, Config{}))
	defer ts.Close()

	var ir initResponse
	if code := post(t, ts, "/v1/init", proteinInit, &ir); code != http.StatusOK {
		t.Fatalf("init: status %d", code)
	}
	if ir.Version != 1 || ir.Records != 2 {
		t.Fatalf("init response = %+v", ir)
	}
	// Re-init of the same name is a conflict.
	if code := post(t, ts, "/v1/init", proteinInit, nil); code != http.StatusConflict {
		t.Fatalf("duplicate init: status %d, want 409", code)
	}

	sid := openSession(t, ts)
	var cr checkoutResponse
	code := post(t, ts, "/v1/checkout", checkoutRequest{Session: sid, CVD: "protein", Versions: []int64{1}, Table: "wd"}, &cr)
	if code != http.StatusOK || cr.Records != 2 {
		t.Fatalf("checkout: status %d, response %+v", code, cr)
	}
	// The physical staging table is session-scoped, not the logical name.
	if e.Database().HasTable("wd") {
		t.Fatal("staging table leaked under its logical name")
	}

	if _, ok := e.Database().Table(sid + "__wd"); !ok {
		t.Fatal("session-scoped staging table missing")
	}
	var mr commitResponse
	code = post(t, ts, "/v1/commit", commitRequest{Session: sid, CVD: "protein", Table: "wd", Message: "same", Author: "bob"}, &mr)
	if code != http.StatusOK || mr.Version != 2 {
		t.Fatalf("commit: status %d, version %d", code, mr.Version)
	}
	// The staged entry is consumed: committing again is a 404.
	if code := post(t, ts, "/v1/commit", commitRequest{Session: sid, CVD: "protein", Table: "wd"}, nil); code != http.StatusNotFound {
		t.Fatalf("re-commit of consumed table: status %d, want 404", code)
	}

	var sr selectResponse
	code = post(t, ts, "/v1/select", selectRequest{
		CVD: "protein", Versions: []int64{1},
		Where: []predicateSpec{{Column: "coexpression", Op: ">", Value: 50}},
	}, &sr)
	if code != http.StatusOK {
		t.Fatalf("select: status %d", code)
	}
	if len(sr.Rows) != 1 {
		t.Fatalf("select returned %d rows, want 1", len(sr.Rows))
	}
	if got := sr.Rows[0].Values[0]; got != "ENSP1" {
		t.Fatalf("select row = %v", sr.Rows[0].Values)
	}
	if v, ok := sr.Rows[0].Values[2].(float64); !ok || v != 80 {
		t.Fatalf("int column over JSON = %v (%T)", sr.Rows[0].Values[2], sr.Rows[0].Values[2])
	}

	var lr logResponse
	if code := get(t, ts, "/v1/log?cvd=protein", &lr); code != http.StatusOK {
		t.Fatalf("log: status %d", code)
	}
	if len(lr.Versions) != 2 || lr.Versions[1].Version != 2 || lr.Versions[1].Author != "bob" {
		t.Fatalf("log = %+v", lr)
	}

	var st statusResponse
	if code := get(t, ts, "/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status: status %d", code)
	}
	if len(st.CVDs) != 1 || st.CVDs[0] != "protein" || st.Durable || st.Sessions != 1 || st.Recovery != nil {
		t.Fatalf("status = %+v", st)
	}
}

// TestStatusReportsRecovery: a durable engine's /v1/status reports what its
// open recovered — the WAL records replayed after the checkpoint and the
// goroutines that loaded it — beside the open's times, which are not checked.
func TestStatusReportsRecovery(t *testing.T) {
	dir := t.TempDir()
	e, err := core.OpenDurable("srv", dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(e, Config{}))
	if code := post(t, ts, "/v1/init", proteinInit, nil); code != http.StatusOK {
		t.Fatalf("init: status %d", code)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sid := openSession(t, ts)
	for i := 0; i < 2; i++ {
		if code := post(t, ts, "/v1/checkout", checkoutRequest{Session: sid, CVD: "protein", Versions: []int64{1}, Table: fmt.Sprintf("wd%d", i)}, nil); code != http.StatusOK {
			t.Fatalf("checkout: status %d", code)
		}
		if code := post(t, ts, "/v1/commit", commitRequest{Session: sid, CVD: "protein", Table: fmt.Sprintf("wd%d", i), Message: "m", Author: "a"}, nil); code != http.StatusOK {
			t.Fatalf("commit: status %d", code)
		}
	}
	ts.Close()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := core.OpenDurable("srv", dir, core.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ts = httptest.NewServer(New(re, Config{}))
	defer ts.Close()
	var st statusResponse
	if code := get(t, ts, "/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status: status %d", code)
	}
	if !st.Durable || st.Recovery == nil || st.Recovery.Replayed != 2 || st.Recovery.Workers != 2 || st.Recovery.TornTail || st.Recovery.StaleWAL {
		t.Fatalf("status = %+v, recovery %+v: want 2 records replayed after a checkpoint loaded on 2 workers", st, st.Recovery)
	}
}

// TestSessionIsolation: two sessions stage the same logical table name
// without colliding, and closing a session reclaims its staging tables.
func TestSessionIsolation(t *testing.T) {
	e := core.Open("t")
	ts := httptest.NewServer(New(e, Config{}))
	defer ts.Close()
	if code := post(t, ts, "/v1/init", proteinInit, nil); code != http.StatusOK {
		t.Fatalf("init: status %d", code)
	}
	a := openSession(t, ts)
	b := openSession(t, ts)
	for _, sid := range []string{a, b} {
		code := post(t, ts, "/v1/checkout", checkoutRequest{Session: sid, CVD: "protein", Versions: []int64{1}, Table: "wd"}, nil)
		if code != http.StatusOK {
			t.Fatalf("checkout in %s: status %d", sid, code)
		}
	}
	// Double-stage of the same logical name within ONE session is refused.
	code := post(t, ts, "/v1/checkout", checkoutRequest{Session: a, CVD: "protein", Versions: []int64{1}, Table: "wd"}, nil)
	if code != http.StatusConflict {
		t.Fatalf("double checkout: status %d, want 409", code)
	}
	// Closing session a drops its staging table; b's survives and commits.
	if code := post(t, ts, "/v1/session/close", sessionResponse{Session: a}, nil); code != http.StatusOK {
		t.Fatalf("session close: status %d", code)
	}
	if e.Database().HasTable(a + "__wd") {
		t.Fatal("closed session's staging table not reclaimed")
	}
	var mr commitResponse
	code = post(t, ts, "/v1/commit", commitRequest{Session: b, CVD: "protein", Table: "wd", Message: "b wins", Author: "b"}, &mr)
	if code != http.StatusOK || mr.Version != 2 {
		t.Fatalf("commit from surviving session: status %d, version %d", code, mr.Version)
	}
	// Commits against a session that no longer exists 404.
	if code := post(t, ts, "/v1/commit", commitRequest{Session: a, CVD: "protein", Table: "wd"}, nil); code != http.StatusNotFound {
		t.Fatalf("commit in closed session: status %d, want 404", code)
	}
}

// TestSessionIDsAreUnguessable: a session id is 128 random bits, hex-encoded:
// two servers hand out different ones, and a client that guesses the id a
// counter would have handed out closes nobody's session.
func TestSessionIDsAreUnguessable(t *testing.T) {
	var ids []string
	for range 2 {
		ts := httptest.NewServer(New(core.Open("t"), Config{}))
		id := openSession(t, ts)
		if len(id) != 32 || strings.Trim(id, "0123456789abcdef") != "" {
			t.Fatalf("session id %q is not 32 hex digits", id)
		}
		if code := post(t, ts, "/v1/session/close", sessionResponse{Session: "s1"}, nil); code != http.StatusNotFound {
			t.Fatalf("closing session \"s1\": status %d, want 404", code)
		}
		if code := post(t, ts, "/v1/session/close", sessionResponse{Session: id}, nil); code != http.StatusOK {
			t.Fatalf("closing the session handed out: status %d", code)
		}
		ts.Close()
		ids = append(ids, id)
	}
	if ids[0] == ids[1] {
		t.Fatalf("two servers handed out the same session id %q", ids[0])
	}
}

// TestAdmissionControl: with MaxInflight 1 and the single slot held, further
// requests are shed with 503 instead of queued.
func TestAdmissionControl(t *testing.T) {
	e := core.Open("t")
	s := New(e, Config{MaxInflight: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Occupy the only slot directly (the handler path would release it too
	// fast to observe).
	s.sem <- struct{}{}
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated server answered %d, want 503", resp.StatusCode)
	}
	<-s.sem
	if code := get(t, ts, "/v1/status", nil); code != http.StatusOK {
		t.Fatalf("drained server answered %d, want 200", code)
	}
}

// postJSON is post for goroutines other than the test's: it reports
// failures as an error instead of failing the test.
func postJSON(ts *httptest.Server, path string, body, out interface{}) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return 0, fmt.Errorf("decoding %s response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

var sessionTable = regexp.MustCompile(`^s[0-9]+__`)

// stagedTables lists the engine's session-prefixed staging tables.
func stagedTables(e *core.Engine) []string {
	var out []string
	for _, name := range e.Database().TableNames() {
		if sessionTable.MatchString(name) {
			out = append(out, name)
		}
	}
	return out
}

// TestConcurrentCommits: many sessions commit to their own CVDs over HTTP at
// once while every open session is closed every few milliseconds (the
// daemon's drain path, CloseSessions) — the paths the -race build must prove
// clean, and on a durable engine the natural group-commit workload. A client
// whose session was closed gets a 404, opens a new session, and retries the
// checkout and the commit together.
func TestConcurrentCommits(t *testing.T) {
	dir := t.TempDir()
	e, err := core.OpenDurable("srv", dir, core.GroupCommit(0, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	srv := New(e, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	stop := make(chan struct{})
	var drains sync.WaitGroup
	drains.Add(1)
	go func() {
		defer drains.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
				srv.CloseSessions()
			}
		}
	}()

	const clients = 8
	var wg sync.WaitGroup
	var retries atomic.Int64
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("ds%d", i)
			req := proteinInit
			req.CVD = name
			if code, err := postJSON(ts, "/v1/init", req, nil); err != nil || code != http.StatusOK {
				errs <- fmt.Errorf("init %s: status %d, %v", name, code, err)
				return
			}
			var sr sessionResponse
			for c := 0; c < 3; {
				if sr.Session == "" {
					if code, err := postJSON(ts, "/v1/session", struct{}{}, &sr); err != nil || code != http.StatusOK {
						errs <- fmt.Errorf("session open: status %d, %v", code, err)
						return
					}
				}
				code, err := postJSON(ts, "/v1/checkout", checkoutRequest{Session: sr.Session, CVD: name, Versions: []int64{1}, Table: "wd"}, nil)
				if err == nil && code == http.StatusOK {
					code, err = postJSON(ts, "/v1/commit", commitRequest{Session: sr.Session, CVD: name, Table: "wd", Message: "m", Author: "a"}, nil)
				}
				switch {
				case err != nil:
					errs <- err
					return
				case code == http.StatusNotFound:
					sr.Session = "" // drained: reopen and retry both
					retries.Add(1)
				case code != http.StatusOK:
					errs <- fmt.Errorf("%s round %d: status %d", name, c, code)
					return
				default:
					c++
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	drains.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	t.Logf("%d checkout+commit pairs retried after a drain", retries.Load())
	srv.CloseSessions()
	if left := stagedTables(e); len(left) != 0 {
		t.Fatalf("staging tables outlived their sessions: %v", left)
	}
	// Every dataset has 1 init + 3 commits; reopen proves it all hit the WAL.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := core.OpenDurable("srv", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < clients; i++ {
		c, err := re.CVD(fmt.Sprintf("ds%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if c.NumVersions() != 4 {
			t.Fatalf("ds%d recovered %d versions, want 4", i, c.NumVersions())
		}
	}
}

// TestCheckoutRacingSessionClose: a checkout still running when its session
// closes must not register its staging table with the closed session, where
// nothing would ever drop it. A split-by-rlist checkout takes no lock, so the
// CVD is an in-memory model's, whose checkout reads its tables under the CVD's
// mutex: holding the mutex parks a two-version checkout inside the engine
// while the session closes.
func TestCheckoutRacingSessionClose(t *testing.T) {
	e := core.Open("t")
	ts := httptest.NewServer(New(e, Config{}))
	defer ts.Close()
	schema := relstore.MustSchema([]relstore.Column{
		{Name: "protein1", Type: relstore.TypeString},
		{Name: "protein2", Type: relstore.TypeString},
		{Name: "coexpression", Type: relstore.TypeInt},
	}, "protein1", "protein2")
	rows := []relstore.Row{
		{relstore.Str("ENSP1"), relstore.Str("ENSP2"), relstore.Int(80)},
		{relstore.Str("ENSP1"), relstore.Str("ENSP3"), relstore.Int(40)},
	}
	if _, err := e.Init("protein", schema, rows, cvd.Options{Model: cvd.SplitByVlist}); err != nil {
		t.Fatal(err)
	}
	sid := openSession(t, ts)
	if code := post(t, ts, "/v1/checkout", checkoutRequest{Session: sid, CVD: "protein", Versions: []int64{1}, Table: "wd"}, nil); code != http.StatusOK {
		t.Fatalf("checkout: status %d", code)
	}
	if code := post(t, ts, "/v1/commit", commitRequest{Session: sid, CVD: "protein", Table: "wd", Message: "v2", Author: "a"}, nil); code != http.StatusOK {
		t.Fatalf("commit: status %d", code)
	}
	c, err := e.CVD("protein")
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		code int
		err  error
	}
	done := make(chan result, 1)
	_ = c.WithExclusive(func() error {
		go func() {
			code, err := postJSON(ts, "/v1/checkout", checkoutRequest{Session: sid, CVD: "protein", Versions: []int64{1, 2}, Table: "wd"}, nil)
			done <- result{code, err}
		}()
		waitForGoroutineIn(t, "cvd.(*CVD).materialize")
		if code := post(t, ts, "/v1/session/close", sessionResponse{Session: sid}, nil); code != http.StatusOK {
			t.Errorf("session close: status %d", code)
		}
		return nil
	})
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.code != http.StatusNotFound {
		t.Errorf("checkout in a session closed under it: status %d, want 404", r.code)
	}
	if left := stagedTables(e); len(left) != 0 {
		t.Fatalf("staging tables outlived their session: %v", left)
	}
}

// waitForGoroutineIn blocks until some goroutine's stack holds fn.
func waitForGoroutineIn(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if bytes.Contains(buf[:runtime.Stack(buf, true)], []byte(fn)) {
			return
		}
	}
	t.Fatalf("no goroutine reached %s", fn)
}

// TestBadRequests: malformed inputs come back as 4xx JSON errors.
func TestBadRequests(t *testing.T) {
	e := core.Open("t")
	ts := httptest.NewServer(New(e, Config{}))
	defer ts.Close()
	var er errorResponse
	if code := post(t, ts, "/v1/init", initRequest{CVD: "x"}, &er); code != http.StatusBadRequest || er.Error == "" {
		t.Fatalf("init without columns: status %d, err %q", code, er.Error)
	}
	bad := proteinInit
	bad.CVD = "y"
	bad.Columns = []columnSpec{{Name: "a", Type: "no-such-type"}}
	bad.Rows = nil
	if code := post(t, ts, "/v1/init", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("bad column type: status %d", code)
	}
	if code := post(t, ts, "/v1/checkout", checkoutRequest{Session: "nope", CVD: "x", Table: "t"}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown session: status %d", code)
	}
	if code := get(t, ts, "/v1/log?cvd=missing", nil); code != http.StatusNotFound {
		t.Fatalf("log of unknown CVD: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/init")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on POST endpoint: status %d", resp.StatusCode)
	}
}
