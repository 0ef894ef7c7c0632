// Package server exposes an OrpheusDB engine over HTTP with JSON bodies —
// the long-running collaborative deployment of the paper, where many clients
// share one hosted engine instead of each embedding their own. The surface
// mirrors the versioning command set (init / checkout / commit / select /
// log) plus a small session layer: checkouts are session-scoped, so two
// clients staging the same logical table name never collide, and a vanished
// client's staging tables are reclaimed when its session closes.
//
// Endpoints (all JSON):
//
//	POST /v1/session          open a session            → {"session": id}
//	POST /v1/session/close    close it, drop its staging tables
//	POST /v1/init             create a CVD from rows    → {"version": 1}
//	POST /v1/checkout         versions → staging table  → {"records": n}
//	POST /v1/commit           staging table → version   → {"version": v}
//	POST /v1/select           versioned scan with predicates
//	GET  /v1/log?cvd=name     commit log of one CVD
//	GET  /v1/status           engine + server status, and what the open recovered
//
// Admission control bounds concurrent request handling: past MaxInflight the
// server answers 503 immediately instead of queueing unboundedly — a loaded
// commit endpoint degrades by shedding, not by collapsing.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cvd"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// DefaultMaxInflight is the admission-control cap when Config leaves it 0.
const DefaultMaxInflight = 64

// Config tunes a Server.
type Config struct {
	// MaxInflight caps concurrently handled requests; further requests get
	// 503 Service Unavailable. <= 0 selects DefaultMaxInflight.
	MaxInflight int
}

// Server is an http.Handler serving one engine. Create with New.
type Server struct {
	engine *core.Engine
	mux    *http.ServeMux
	sem    chan struct{}

	mu       sync.Mutex
	sessions map[string]*session
}

// session tracks one client's staging state: logical table name → the
// checkout's physical table and owning CVD, so close can reclaim leftovers.
type session struct {
	id string

	mu     sync.Mutex
	tables map[string]staged
	// closed is set by reclaim: a checkout that finishes afterwards must
	// discard its table rather than register it with a session nobody can
	// reach.
	closed bool
}

type staged struct {
	cvd      string
	physical string
}

// New wraps an engine in a Server. The engine may be ephemeral or durable;
// the server itself never opens or closes it (the daemon owns that
// lifecycle, including the checkpoint-on-drain).
func New(engine *core.Engine, cfg Config) *Server {
	max := cfg.MaxInflight
	if max <= 0 {
		max = DefaultMaxInflight
	}
	s := &Server{
		engine:   engine,
		mux:      http.NewServeMux(),
		sem:      make(chan struct{}, max),
		sessions: make(map[string]*session),
	}
	s.mux.HandleFunc("/v1/session", s.handleSessionOpen)
	s.mux.HandleFunc("/v1/session/close", s.handleSessionClose)
	s.mux.HandleFunc("/v1/init", s.handleInit)
	s.mux.HandleFunc("/v1/checkout", s.handleCheckout)
	s.mux.HandleFunc("/v1/commit", s.handleCommit)
	s.mux.HandleFunc("/v1/select", s.handleSelect)
	s.mux.HandleFunc("/v1/log", s.handleLog)
	s.mux.HandleFunc("/v1/status", s.handleStatus)
	return s
}

// ServeHTTP implements http.Handler with admission control: a request past
// the in-flight cap is shed with 503 instead of queued.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server at capacity (%d requests in flight)", cap(s.sem)))
		return
	}
	s.mux.ServeHTTP(w, r)
}

// CloseSessions closes every open session, dropping leftover staging tables.
// The daemon calls it during drain, after the HTTP listener has stopped.
func (s *Server) CloseSessions() {
	s.mu.Lock()
	open := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		open = append(open, sess)
	}
	s.sessions = make(map[string]*session)
	s.mu.Unlock()
	for _, sess := range open {
		s.reclaim(sess)
	}
}

// reclaim marks a session closed and drops its remaining staging tables.
func (s *Server) reclaim(sess *session) {
	sess.mu.Lock()
	tables := sess.tables
	sess.tables = make(map[string]staged)
	sess.closed = true
	sess.mu.Unlock()
	for _, st := range tables {
		s.discard(st)
	}
}

// discard drops one staging table and its CVD's checkout entry.
func (s *Server) discard(st staged) {
	if c, err := s.engine.CVD(st.cvd); err == nil {
		c.DiscardCheckout(st.physical)
	} else {
		s.engine.Database().DropTable(st.physical)
	}
}

// ---- request / response shapes ----

type errorResponse struct {
	Error string `json:"error"`
}

type sessionResponse struct {
	Session string `json:"session"`
}

type columnSpec struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

type initRequest struct {
	CVD     string          `json:"cvd"`
	Columns []columnSpec    `json:"columns"`
	PK      []string        `json:"pk"`
	Rows    [][]interface{} `json:"rows"`
	Message string          `json:"message"`
	Author  string          `json:"author"`
}

type initResponse struct {
	CVD     string `json:"cvd"`
	Version int64  `json:"version"`
	Records int64  `json:"records"`
}

type checkoutRequest struct {
	Session  string  `json:"session"`
	CVD      string  `json:"cvd"`
	Versions []int64 `json:"versions"`
	Table    string  `json:"table"`
}

type checkoutResponse struct {
	Table   string `json:"table"`
	Records int    `json:"records"`
}

type commitRequest struct {
	Session string `json:"session"`
	CVD     string `json:"cvd"`
	Table   string `json:"table"`
	Message string `json:"message"`
	Author  string `json:"author"`
}

type commitResponse struct {
	Version int64 `json:"version"`
}

type predicateSpec struct {
	Column string      `json:"column"`
	Op     string      `json:"op"`
	Value  interface{} `json:"value"`
}

type selectRequest struct {
	CVD      string          `json:"cvd"`
	Versions []int64         `json:"versions"`
	Where    []predicateSpec `json:"where"`
	Limit    int             `json:"limit"`
}

type logVersion struct {
	Version  int64   `json:"version"`
	Parents  []int64 `json:"parents"`
	Author   string  `json:"author"`
	Message  string  `json:"message"`
	CommitAt string  `json:"commit_at"`
	Records  int64   `json:"records"`
}

type logResponse struct {
	CVD      string       `json:"cvd"`
	Model    string       `json:"model"`
	Versions []logVersion `json:"versions"`
}

type statusResponse struct {
	CVDs     []string        `json:"cvds"`
	Durable  bool            `json:"durable"`
	DataDir  string          `json:"data_dir,omitempty"`
	Sessions int             `json:"sessions"`
	Recovery *recoveryStatus `json:"recovery,omitempty"`
}

// recoveryStatus is what opening the data directory repaired and where the
// open's time went (core.RecoveryInfo); a durable engine reports it.
type recoveryStatus struct {
	TornTail  bool    `json:"torn_tail"`
	StaleWAL  bool    `json:"stale_wal"`
	LoadMS    float64 `json:"load_ms"`
	Workers   int     `json:"workers"`
	RebuildMS float64 `json:"rebuild_ms"`
	ReplayMS  float64 `json:"replay_ms"`
	Replayed  int     `json:"replayed"`
}

// ---- handlers ----

func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	sess := &session{tables: make(map[string]staged)}
	s.mu.Lock()
	for taken := true; taken; _, taken = s.sessions[sess.id] {
		sess.id = newSessionID()
	}
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, sessionResponse{Session: sess.id})
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req sessionResponse
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	sess, ok := s.sessions[req.Session]
	delete(s.sessions, req.Session)
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown session %q", req.Session))
		return
	}
	s.reclaim(sess)
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) handleInit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req initRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.CVD == "" || len(req.Columns) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("init requires cvd and columns"))
		return
	}
	cols := make([]relstore.Column, 0, len(req.Columns))
	for _, c := range req.Columns {
		t, err := relstore.ParseType(c.Type)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("column %q: %w", c.Name, err))
			return
		}
		cols = append(cols, relstore.Column{Name: c.Name, Type: t})
	}
	schema, err := relstore.NewSchema(cols, req.PK...)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rows, err := decodeRows(schema, req.Rows)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	c, err := s.engine.Init(req.CVD, schema, rows, cvd.Options{Author: req.Author, Message: req.Message})
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, initResponse{CVD: req.CVD, Version: 1, Records: c.NumRecords()})
}

func (s *Server) handleCheckout(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req checkoutRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Table == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("checkout requires a table name"))
		return
	}
	sess, err := s.session(req.Session)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	// The physical staging table is session-prefixed: two sessions staging
	// "wd" each get their own table, and the engine-side claim check (commit
	// consumes only tables that checkout produced) still holds per session.
	physical := sess.id + "__" + req.Table
	sess.mu.Lock()
	if _, dup := sess.tables[req.Table]; dup {
		sess.mu.Unlock()
		writeError(w, http.StatusConflict, fmt.Errorf("table %q is already staged in session %s", req.Table, sess.id))
		return
	}
	sess.mu.Unlock()
	tab, err := s.engine.Checkout(req.CVD, versionIDs(req.Versions), physical)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	st := staged{cvd: req.CVD, physical: physical}
	sess.mu.Lock()
	if sess.closed {
		// The session closed while the checkout ran; reclaim has already
		// swept its tables, so this one is dropped here instead.
		sess.mu.Unlock()
		s.discard(st)
		writeError(w, http.StatusNotFound, fmt.Errorf("session %s closed during checkout", sess.id))
		return
	}
	sess.tables[req.Table] = st
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, checkoutResponse{Table: req.Table, Records: tab.Len()})
}

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req commitRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sess, err := s.session(req.Session)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	sess.mu.Lock()
	st, ok := sess.tables[req.Table]
	sess.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no staged table %q in session %s", req.Table, sess.id))
		return
	}
	if st.cvd != req.CVD {
		writeError(w, http.StatusConflict, fmt.Errorf("table %q was checked out from CVD %q, not %q", req.Table, st.cvd, req.CVD))
		return
	}
	v, err := s.engine.Commit(req.CVD, st.physical, req.Message, req.Author)
	// The staging table is consumed on success AND on the journal-failure
	// partial-success path (v != 0): either way it no longer exists, so the
	// session must forget it.
	sess.mu.Lock()
	if v != 0 {
		delete(sess.tables, req.Table)
	}
	closed := sess.closed
	sess.mu.Unlock()
	if err != nil && v == 0 && closed {
		// reclaim dropped the staging table while the commit ran. Drop the
		// checkout entry CommitTable restores on failure with it.
		s.discard(st)
		writeError(w, http.StatusNotFound, fmt.Errorf("session %s closed during commit", sess.id))
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, commitResponse{Version: int64(v)})
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req selectRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	c, err := s.engine.CVD(req.CVD)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	var pred cvd.Predicate
	if len(req.Where) > 0 {
		schema := c.Schema()
		comparisons := make([]cvd.ColumnComparison, 0, len(req.Where))
		for _, p := range req.Where {
			i := schema.ColumnIndex(p.Column)
			if i < 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("unknown column %q", p.Column))
				return
			}
			val, err := jsonToValue(schema.Columns[i].Type, p.Value)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("predicate on %q: %w", p.Column, err))
				return
			}
			comparisons = append(comparisons, cvd.ColumnComparison{Column: p.Column, Op: p.Op, Value: val})
		}
		pred, err = c.NamedPredicateAll(comparisons)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	a, err := c.SelectVersions(versionIDs(req.Versions), pred, req.Limit)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	buf := selectBufs.Get().(*[]byte)
	body, err := appendSelect((*buf)[:0], &a)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
	} else {
		writeBody(w, http.StatusOK, body)
	}
	if cap(body) <= maxPooledBuf {
		*buf = body[:0]
		selectBufs.Put(buf)
	}
}

func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	name := r.URL.Query().Get("cvd")
	c, err := s.engine.CVD(name)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	resp := logResponse{CVD: name, Model: c.Model().String()}
	for _, m := range c.AllMeta() {
		parents := make([]int64, len(m.Parents))
		for i, p := range m.Parents {
			parents[i] = int64(p)
		}
		resp.Versions = append(resp.Versions, logVersion{
			Version:  int64(m.ID),
			Parents:  parents,
			Author:   m.Author,
			Message:  m.Message,
			CommitAt: m.CommitAt.Format("2006-01-02T15:04:05Z07:00"),
			Records:  m.NumRecords,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	resp := statusResponse{
		CVDs:     s.engine.List(),
		Durable:  s.engine.Durable(),
		DataDir:  s.engine.DataDir(),
		Sessions: n,
	}
	if resp.Durable {
		rec := s.engine.Recovery()
		resp.Recovery = &recoveryStatus{
			TornTail:  rec.TornTail,
			StaleWAL:  rec.StaleWAL,
			LoadMS:    ms(rec.Load),
			Workers:   rec.Workers,
			RebuildMS: ms(rec.Rebuild),
			ReplayMS:  ms(rec.Replay),
			Replayed:  rec.Replayed,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- helpers ----

// newSessionID draws a session id: 128 random bits, hex-encoded, so that no
// client can name a session it was not handed.
func newSessionID() string {
	var b [16]byte
	rand.Read(b[:]) // never returns an error
	return hex.EncodeToString(b[:])
}

// ms renders a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s *Server) session(id string) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("unknown session %q (open one with POST /v1/session)", id)
	}
	return sess, nil
}

func decodeBody(r *http.Request, into interface{}) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 64<<20))
	dec.UseNumber()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

// writeJSON sends v as a JSON body. A value encoding/json refuses is a 500
// saying why, not a 200 with an empty body.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(errorResponse{Error: fmt.Sprintf("encoding the response: %v", err)}) // a string always marshals
	}
	writeBody(w, code, append(body, '\n'))
}

// writeBody sends a whole JSON body in one write, with its length.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body) // a failed write is a client gone: nobody to tell
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

func versionIDs(in []int64) []vgraph.VersionID {
	out := make([]vgraph.VersionID, len(in))
	for i, v := range in {
		out[i] = vgraph.VersionID(v)
	}
	return out
}

// decodeRows converts JSON row arrays into typed relstore rows per the
// schema's column types.
func decodeRows(schema relstore.Schema, raw [][]interface{}) ([]relstore.Row, error) {
	rows := make([]relstore.Row, 0, len(raw))
	for ri, rr := range raw {
		if len(rr) != len(schema.Columns) {
			return nil, fmt.Errorf("row %d has %d values, schema has %d columns", ri, len(rr), len(schema.Columns))
		}
		row := make(relstore.Row, len(rr))
		for ci, cell := range rr {
			v, err := jsonToValue(schema.Columns[ci].Type, cell)
			if err != nil {
				return nil, fmt.Errorf("row %d, column %q: %w", ri, schema.Columns[ci].Name, err)
			}
			row[ci] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// jsonToValue coerces one decoded JSON value to a typed relstore value.
// Numbers arrive as json.Number (decodeBody sets UseNumber so int64 range is
// not squeezed through float64).
func jsonToValue(t relstore.ValueType, raw interface{}) (relstore.Value, error) {
	switch t {
	case relstore.TypeInt:
		switch x := raw.(type) {
		case json.Number:
			n, err := strconv.ParseInt(x.String(), 10, 64)
			if err != nil {
				return relstore.Value{}, fmt.Errorf("not an integer: %v", x)
			}
			return relstore.Int(n), nil
		case string:
			n, err := strconv.ParseInt(x, 10, 64)
			if err != nil {
				return relstore.Value{}, fmt.Errorf("not an integer: %q", x)
			}
			return relstore.Int(n), nil
		}
	case relstore.TypeFloat:
		switch x := raw.(type) {
		case json.Number:
			f, err := x.Float64()
			if err != nil {
				return relstore.Value{}, err
			}
			return relstore.Float(f), nil
		case string:
			f, err := strconv.ParseFloat(x, 64)
			if err != nil {
				return relstore.Value{}, fmt.Errorf("not a float: %q", x)
			}
			if math.IsNaN(f) || math.IsInf(f, 0) {
				// JSON has no number for it, so no select could answer it.
				return relstore.Value{}, fmt.Errorf("not a finite float: %q", x)
			}
			return relstore.Float(f), nil
		}
	case relstore.TypeString:
		switch x := raw.(type) {
		case string:
			return relstore.Str(x), nil
		case json.Number:
			return relstore.Str(x.String()), nil
		}
	case relstore.TypeBool:
		if b, ok := raw.(bool); ok {
			return relstore.Bool(b), nil
		}
	}
	return relstore.Value{}, fmt.Errorf("cannot use JSON value %v (%T) as %s", raw, raw, t)
}
