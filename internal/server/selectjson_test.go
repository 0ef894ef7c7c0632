package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cvd"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// The oracle: a select's body as encoding/json writes it for the answer boxed
// row by row — the rows ScanVersions returns, each value as its natural JSON
// type, after the CVD schema's column names. The tests also decode answers
// into these shapes.

type selectRow struct {
	Version int64         `json:"version"`
	RID     int64         `json:"rid"`
	Values  []interface{} `json:"values"`
}

type selectResponse struct {
	Columns []string    `json:"columns"`
	Rows    []selectRow `json:"rows"`
}

// valueToJSON renders a relstore value as its natural JSON type.
func valueToJSON(v relstore.Value) interface{} {
	switch v.Type {
	case relstore.TypeInt:
		return v.AsInt()
	case relstore.TypeFloat:
		return v.AsFloat()
	case relstore.TypeBool:
		return v.AsBool()
	default:
		return v.AsString()
	}
}

// encodingJSONSelect is the oracle's body for a select.
func encodingJSONSelect(c *cvd.CVD, versions []vgraph.VersionID, pred cvd.Predicate, limit int) ([]byte, error) {
	rows, err := c.ScanVersions(versions, pred, limit)
	if err != nil {
		return nil, err
	}
	resp := selectResponse{Columns: c.Schema().ColumnNames(), Rows: make([]selectRow, 0, len(rows))}
	for _, vr := range rows {
		vals := make([]interface{}, len(vr.Row))
		for i, v := range vr.Row {
			vals[i] = valueToJSON(v)
		}
		resp.Rows = append(resp.Rows, selectRow{Version: int64(vr.Version), RID: int64(vr.RID), Values: vals})
	}
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes(), err
}

// sameSelect requires the encoder to write the oracle's bytes for a select, or
// to refuse the answer when encoding/json does.
func sameSelect(t testing.TB, c *cvd.CVD, versions []vgraph.VersionID, pred cvd.Predicate, limit int) {
	t.Helper()
	want, wantErr := encodingJSONSelect(c, versions, pred, limit)
	a, err := c.SelectVersions(versions, pred, limit)
	if err != nil {
		t.Fatalf("select %v limit %d: %v", versions, limit, err)
	}
	got, gotErr := appendSelect(nil, &a)
	switch {
	case (gotErr != nil) != (wantErr != nil):
		t.Fatalf("select %v limit %d: encoder error %v, encoding/json error %v", versions, limit, gotErr, wantErr)
	case gotErr == nil && !bytes.Equal(got, want):
		t.Fatalf("select %v limit %d:\n got %q\nwant %q", versions, limit, got, want)
	}
}

// jsonEdges are, per column type, cells whose JSON renderings have edges: the
// int64 extremes, the floats at and beside encoding/json's notation thresholds,
// the string bytes and runes it escapes, and NULL; and column names that need
// escaping.
var jsonEdges = []struct {
	col   relstore.Column
	cells []relstore.Value
}{
	{relstore.Column{Name: "int", Type: relstore.TypeInt}, []relstore.Value{
		relstore.Int(math.MinInt64), relstore.Int(math.MaxInt64), relstore.Int(0), relstore.Int(-7), relstore.Null(),
	}},
	{relstore.Column{Name: `float "f"`, Type: relstore.TypeFloat}, []relstore.Value{
		relstore.Float(1e21), relstore.Float(math.Nextafter(1e21, 0)), relstore.Float(-1e21),
		relstore.Float(1e-6), relstore.Float(math.Nextafter(1e-6, 0)), relstore.Float(-1e-6),
		relstore.Float(5e-324), relstore.Float(math.Copysign(0, -1)), relstore.Float(0), relstore.Float(-1.5e-7),
		relstore.Float(123456789.125), relstore.Float(math.MaxFloat64), relstore.Float(1e-100), relstore.Null(),
	}},
	{relstore.Column{Name: "<str>&", Type: relstore.TypeString}, []relstore.Value{
		relstore.Str("a<b"), relstore.Str("a>b"), relstore.Str("a&b"), relstore.Str("\u2028 and \u2029"),
		relstore.Str("\x00\t\n\r\x1f\x7f"), relstore.Str("\xff\xfe invalid"), relstore.Str(""),
		relstore.Str(`say "hi" \ bye`), relstore.Str("ünïcødé"), relstore.Str("plain"), relstore.Null(),
	}},
	{relstore.Column{Name: "bool\t", Type: relstore.TypeBool}, []relstore.Value{
		relstore.Bool(true), relstore.Bool(false), relstore.Null(),
	}},
	{relstore.Column{Name: "ärr", Type: relstore.TypeIntArray}, []relstore.Value{
		relstore.IntArray(nil), relstore.IntArray([]int64{1, -2, math.MaxInt64}), relstore.Null(),
	}},
}

// TestSelectJSONEqualsEncodingJSON: over columns holding every edge value,
// and answers with versions that select nothing, a hit limit and no rows, the
// encoder writes what encoding/json writes, and so does the handler.
func TestSelectJSONEqualsEncodingJSON(t *testing.T) {
	cols := []relstore.Column{{Name: "k", Type: relstore.TypeInt}}
	n := 0
	for _, e := range jsonEdges {
		cols = append(cols, e.col)
		n = max(n, len(e.cells))
	}
	schema := relstore.MustSchema(cols, "k")
	rows := make([]relstore.Row, 3*n)
	for r := range rows {
		rows[r] = relstore.Row{relstore.Int(int64(r))}
		for _, e := range jsonEdges {
			rows[r] = append(rows[r], e.cells[r%len(e.cells)])
		}
	}
	e := core.Open("t")
	c, err := e.Init("edges", schema, rows[:n], cvd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit([]vgraph.VersionID{1}, rows[n:2*n], schema, "v2", "t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit([]vgraph.VersionID{2}, rows[2*n:], schema, "v3", "t"); err != nil {
		t.Fatal(err)
	}
	pred := func(col, op string, v relstore.Value) cvd.Predicate {
		p, err := c.NamedPredicate(col, op, v)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	inV1 := pred("k", "<", relstore.Int(int64(n)))
	for _, q := range []struct {
		versions []vgraph.VersionID
		pred     cvd.Predicate
		limit    int
	}{
		{[]vgraph.VersionID{1, 2, 3}, nil, 0},
		{[]vgraph.VersionID{2, 1, 3}, inV1, 0},                            // the first and the last version select nothing
		{[]vgraph.VersionID{1, 2, 3}, nil, n + 2},                         // the limit is hit in version 2
		{[]vgraph.VersionID{3, 1}, nil, 1},                                // in version 3
		{[]vgraph.VersionID{1, 1}, inV1, 0},                               // a version listed twice
		{[]vgraph.VersionID{1, 2, 3}, pred("k", "<", relstore.Int(0)), 0}, // no rows
		{[]vgraph.VersionID{1, 2}, pred("<str>&", "=", relstore.Str("a<b")), 0},
		{[]vgraph.VersionID{3}, cvd.RowPredicate(func(r relstore.Row) bool { return r[1].Type == relstore.TypeNull }), 0},
	} {
		sameSelect(t, c, q.versions, q.pred, q.limit)
	}

	// Through the handler: the same bytes, and their length in the header.
	srv := New(e, Config{})
	for _, limit := range []int{0, 3} {
		versions := []vgraph.VersionID{1, 2, 3}
		want, err := encodingJSONSelect(c, versions, inV1, limit)
		if err != nil {
			t.Fatal(err)
		}
		rec := serveSelect(srv, fmt.Sprintf(`{"cvd":"edges","versions":[1,2,3],"where":[{"column":"k","op":"<","value":%d}],"limit":%d}`, n, limit))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("handler, limit %d: status %d\n got %q\nwant %q", limit, rec.Code, rec.Body.Bytes(), want)
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(want)) {
			t.Fatalf("handler, limit %d: Content-Length %q for a %d-byte body", limit, got, len(want))
		}
	}
}

// FuzzSelectJSON: for arbitrary cells and column names, over two versions,
// the encoder writes what encoding/json writes, or refuses the answer when
// encoding/json does (a non-finite float).
func FuzzSelectJSON(f *testing.F) {
	f.Add(int64(math.MinInt64), math.Float64bits(1e21), "<>&", `a"b`, true, uint8(0), 0)
	f.Add(int64(math.MaxInt64), math.Float64bits(5e-324), "\u2028\xff", "", false, uint8(3), 2)
	f.Add(int64(0), math.Float64bits(math.Copysign(0, -1)), "\x00\x1f", "ü", true, uint8(6), 1)
	f.Add(int64(-1), math.Float64bits(1e-7), "", "<col>", false, uint8(255), 0)
	f.Add(int64(9), math.Float64bits(math.Nextafter(1e-6, 0)), "x", "y", true, uint8(17), 5)
	f.Add(int64(5), math.Float64bits(math.NaN()), "x", "y", true, uint8(1), 0)
	f.Fuzz(func(t *testing.T, n int64, fbits uint64, s, name string, b bool, shape uint8, limit int) {
		fl := math.Float64frombits(fbits)
		cells := [][3]relstore.Value{
			{relstore.Int(n), relstore.Int(-n), relstore.Null()},
			{relstore.Float(fl), relstore.Float(-fl), relstore.Null()},
			{relstore.Str(s), relstore.Str(name), relstore.Null()},
			{relstore.Bool(b), relstore.Bool(!b), relstore.Null()},
			{relstore.IntArray([]int64{n}), relstore.IntArray(nil), relstore.Null()},
		}
		schema, err := relstore.NewSchema([]relstore.Column{
			{Name: "k", Type: relstore.TypeInt},
			{Name: "i" + name, Type: relstore.TypeInt},
			{Name: "f", Type: relstore.TypeFloat},
			{Name: "s", Type: relstore.TypeString},
			{Name: "b", Type: relstore.TypeBool},
			{Name: "a", Type: relstore.TypeIntArray},
		})
		if err != nil {
			t.Skip(err)
		}
		rows := make([]relstore.Row, 6)
		for i := range rows {
			rows[i] = relstore.Row{relstore.Int(int64(i))}
			for j, c := range cells {
				rows[i] = append(rows[i], c[(i+j*int(shape))%3])
			}
		}
		c, err := cvd.Init(relstore.NewDatabase("f"), "d", schema, rows[:4], cvd.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Commit([]vgraph.VersionID{1}, rows[2:], schema, "v2", "t"); err != nil {
			t.Fatal(err)
		}
		versions := [][]vgraph.VersionID{{1}, {1, 2}, {2, 1}, {2, 2}}[shape%4]
		var pred cvd.Predicate
		switch (shape / 4) % 3 {
		case 1:
			pred, err = c.NamedPredicate("k", ">=", relstore.Int(2))
		case 2:
			pred, err = c.NamedPredicate("k", "<", relstore.Int(0))
		}
		if err != nil {
			t.Fatal(err)
		}
		sameSelect(t, c, versions, pred, limit%8)
	})
}

// serveSelect serves one /v1/select request in process.
func serveSelect(srv *Server, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/select", strings.NewReader(body)))
	return rec
}

// TestNonFiniteFloats: JSON has no number for NaN or ±Inf. /v1/init refuses
// them, and a select whose answer holds one (loaded in process, or by the CLI)
// answers 500 naming the cell, not 200 with an empty body.
func TestNonFiniteFloats(t *testing.T) {
	e := core.Open("t")
	srv := New(e, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, bad := range []string{"NaN", "+Inf", "-Inf", "Infinity"} {
		req := initRequest{
			CVD:     "f",
			Columns: []columnSpec{{Name: "id", Type: "int"}, {Name: "score", Type: "float"}},
			PK:      []string{"id"},
			Rows:    [][]interface{}{{1, bad}},
		}
		var er errorResponse
		if code := post(t, ts, "/v1/init", req, &er); code != http.StatusBadRequest || !strings.Contains(er.Error, "finite") {
			t.Errorf("init with a %s float: status %d, error %q; want 400", bad, code, er.Error)
		}
	}

	schema := relstore.MustSchema([]relstore.Column{{Name: "id", Type: relstore.TypeInt}, {Name: "score", Type: relstore.TypeFloat}}, "id")
	rows := []relstore.Row{
		{relstore.Int(1), relstore.Float(0.5)},
		{relstore.Int(2), relstore.Float(math.NaN())},
		{relstore.Int(3), relstore.Float(math.Inf(-1))},
	}
	if _, err := e.Init("g", schema, rows, cvd.Options{}); err != nil {
		t.Fatal(err)
	}
	where := func(id int) selectRequest {
		return selectRequest{CVD: "g", Versions: []int64{1}, Where: []predicateSpec{{Column: "id", Op: "=", Value: id}}}
	}
	var sr selectResponse
	if code := post(t, ts, "/v1/select", where(1), &sr); code != http.StatusOK || len(sr.Rows) != 1 {
		t.Fatalf("select of a finite row: status %d, %d rows", code, len(sr.Rows))
	}
	for id, text := range map[int]string{2: "NaN", 3: "-Inf"} {
		var er errorResponse
		code := post(t, ts, "/v1/select", where(id), &er)
		if code != http.StatusInternalServerError || !strings.Contains(er.Error, `"score"`) ||
			!strings.Contains(er.Error, fmt.Sprintf("record %d", id)) || !strings.Contains(er.Error, text) {
			t.Errorf("select of a %s cell: status %d, error %q; want 500 naming column and record", text, code, er.Error)
		}
	}

	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, math.Inf(1))
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); rec.Code != http.StatusInternalServerError || err != nil || er.Error == "" {
		t.Errorf("writeJSON of +Inf: status %d, body %q", rec.Code, rec.Body.Bytes())
	}
}

// TestSelectColumnsMatchValues: selects served while a committer adds columns
// name exactly the columns their rows hold values for — both come from the
// catalog view the select was answered from.
func TestSelectColumnsMatchValues(t *testing.T) {
	e := core.Open("t")
	schema := relstore.MustSchema([]relstore.Column{{Name: "k", Type: relstore.TypeInt}, {Name: "a", Type: relstore.TypeInt}}, "k")
	rows := make([]relstore.Row, 20)
	for i := range rows {
		rows[i] = relstore.Row{relstore.Int(int64(i)), relstore.Int(int64(i * i))}
	}
	c, err := e.Init("grow", schema, rows, cvd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(e, Config{})
	const commits, readers = 60, 2
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1 + readers)
	go func() {
		defer wg.Done()
		defer close(done)
		head := vgraph.VersionID(1)
		for i := 0; i < commits; i++ {
			s, err := c.Schema().WithColumn(relstore.Column{Name: fmt.Sprintf("e%d", i), Type: relstore.TypeInt})
			if err != nil {
				t.Error(err)
				return
			}
			next := make([]relstore.Row, len(rows))
			for r, row := range rows {
				next[r] = append(row.Clone(), make(relstore.Row, len(s.Columns)-len(row))...)
				for j := len(row); j < len(s.Columns); j++ {
					next[r][j] = relstore.Int(int64(i))
				}
			}
			if head, err = c.Commit([]vgraph.VersionID{head}, next, s, "grow", "t"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			for served := 0; ; served++ {
				select {
				case <-done:
					if served > 0 {
						return
					}
				default:
				}
				rec := serveSelect(srv, `{"cvd":"grow","versions":[1]}`)
				var sr selectResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &sr); rec.Code != http.StatusOK || err != nil {
					t.Errorf("select: status %d, %v", rec.Code, err)
					return
				}
				for _, row := range sr.Rows {
					if len(row.Values) != len(sr.Columns) {
						t.Errorf("a select names %d columns and holds %d values in record %d", len(sr.Columns), len(row.Values), row.RID)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSelectResponseCostsItsBytes: serving a select allocates as often for 10
// rows as for 1 000 — no cell is boxed — and no more bytes than a few times
// the answer it sends. It skips under -race, whose allocations are not the
// program's.
func TestSelectResponseCostsItsBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the program's")
	}
	const width, records, limit = 20, 2_000, 1_000
	cols := []relstore.Column{{Name: "key", Type: relstore.TypeInt}}
	for i := 1; i < width; i++ {
		cols = append(cols, relstore.Column{Name: fmt.Sprintf("a%02d", i), Type: relstore.TypeInt})
	}
	rng := rand.New(rand.NewSource(7))
	rows := make([]relstore.Row, records)
	for k := range rows {
		rows[k] = relstore.Row{relstore.Int(int64(k))}
		for i := 1; i < width; i++ {
			rows[k] = append(rows[k], relstore.Int(rng.Int63n(100_000)))
		}
	}
	e := core.Open("gate")
	if _, err := e.Init("d", relstore.MustSchema(cols, "key"), rows, cvd.Options{}); err != nil {
		t.Fatal(err)
	}
	srv := New(e, Config{})
	request := func(n int) string {
		return fmt.Sprintf(`{"cvd":"d","versions":[1],"where":[{"column":"a01","op":">=","value":0}],"limit":%d}`, n)
	}
	allocs := func(n int) float64 {
		body := request(n)
		return testing.AllocsPerRun(20, func() {
			if rec := serveSelect(srv, body); rec.Code != http.StatusOK {
				t.Fatalf("select: status %d: %s", rec.Code, rec.Body.Bytes())
			}
		})
	}
	few, many := allocs(10), allocs(limit)
	t.Logf("serving a select allocates %.0f times for 10 rows and %.0f for %d", few, many, limit)
	if many > 150 || few != many {
		t.Errorf("serving a select allocates %.0f times for 10 rows and %.0f for %d, want the same, at most 150", few, many, limit)
	}
	body := request(limit)
	size := serveSelect(srv, body).Body.Len()
	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		serveSelect(srv, body)
	}
	runtime.ReadMemStats(&m1)
	per := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	t.Logf("serving a %d-row select allocates %.0f B (%.2f of its %d-byte answer)", limit, per, per/float64(size), size)
	if per > 3*float64(size) {
		t.Errorf("serving a %d-row select allocates %.0f B, want <= 3 x its %d-byte answer", limit, per, size)
	}
}
