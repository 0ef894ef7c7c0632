package vquel

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/benchmark"
	"repro/internal/cvd"
	"repro/internal/partition"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// chooser draws from a script first, then from rng: the fuzzer scripts the
// history and the queries.
type chooser struct {
	script []byte
	rng    *rand.Rand
}

func (c *chooser) intn(n int) int {
	if len(c.script) > 0 {
		b := c.script[0]
		c.script = c.script[1:]
		return int(b) % n
	}
	return c.rng.Intn(n)
}

var allModels = []cvd.ModelKind{cvd.SplitByRlist, cvd.SplitByVlist, cvd.CombinedTable, cvd.TablePerVersion, cvd.DeltaBased}

// tickingClock is an hour later at every call, so commit timestamps sort.
func tickingClock() func() time.Time {
	var mu sync.Mutex
	at := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		at = at.Add(time.Hour)
		return at
	}
}

// storeHistory draws a CVD of the given model: its cells hold NULLs and, in
// the integer column, stray strings and floats; each later version derives
// from one parent, or merges two, by dropping, editing and adding rows, and
// now and then adds a column or generalizes the integer column `a` to
// decimal.
func storeHistory(t testing.TB, ch *chooser, model cvd.ModelKind) *cvd.CVD {
	t.Helper()
	cell := func(typ relstore.ValueType) relstore.Value {
		switch n := ch.intn(12); {
		case n == 0:
			return relstore.Null()
		case n == 1 && typ == relstore.TypeInt:
			return relstore.Str("s" + strconv.Itoa(ch.intn(3)))
		case n == 2 && typ == relstore.TypeInt:
			return relstore.Float(float64(ch.intn(10)) + 0.5)
		}
		switch typ {
		case relstore.TypeInt:
			return relstore.Int(int64(ch.intn(10)))
		case relstore.TypeFloat:
			return relstore.Float(float64(ch.intn(20)) / 2)
		default:
			return relstore.Str("s" + strconv.Itoa(ch.intn(4)))
		}
	}
	key := int64(0)
	newRow := func(s relstore.Schema) relstore.Row {
		key++
		r := relstore.Row{relstore.Int(key)}
		for _, col := range s.Columns[1:] {
			r = append(r, cell(col.Type))
		}
		return r
	}
	schema := relstore.MustSchema([]relstore.Column{
		{Name: "k", Type: relstore.TypeInt},
		{Name: "a", Type: relstore.TypeInt},
		{Name: "s", Type: relstore.TypeString},
	})
	rows := make([]relstore.Row, 3+ch.intn(10))
	for i := range rows {
		rows[i] = newRow(schema)
	}
	c, err := cvd.Init(relstore.NewDatabase("q"), "d", schema, rows, cvd.Options{Model: model, Author: "ann", Message: "init", Clock: tickingClock()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 2 + ch.intn(4); i > 0; i-- {
		vs := c.Versions()
		parents := []vgraph.VersionID{vs[ch.intn(len(vs))]}
		if other := vs[ch.intn(len(vs))]; other != parents[0] && ch.intn(3) == 0 {
			parents = append(parents, other)
		}
		s := c.Schema()
		switch ch.intn(4) {
		case 0:
			s, err = s.WithColumn(relstore.Column{Name: fmt.Sprintf("e%d", len(s.Columns)), Type: []relstore.ValueType{relstore.TypeInt, relstore.TypeFloat, relstore.TypeString}[ch.intn(3)]})
			if err != nil {
				t.Fatal(err)
			}
		case 1:
			s.Columns[s.ColumnIndex("a")].Type = relstore.TypeFloat
		}
		var next []relstore.Row
		for _, p := range parents {
			for _, rid := range c.RecordsOf(p) {
				r, _ := c.RecordContent(rid)
				r = r.Clone()
				for len(r) < len(s.Columns) {
					r = append(r, relstore.Null())
				}
				switch ch.intn(4) {
				case 0: // dropped
					continue
				case 1:
					j := 1 + ch.intn(len(r)-1)
					r[j] = cell(s.Columns[j].Type)
				}
				next = append(next, r)
			}
		}
		for j := ch.intn(5); j > 0; j-- {
			next = append(next, newRow(s))
		}
		if _, err := c.Commit(parents, next, s, "commit "+strconv.Itoa(i), []string{"ann", "bob"}[ch.intn(2)]); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// optimize partitions a split-by-rlist CVD with LyreSplit, as the `optimize`
// command does.
func optimize(t testing.TB, c *cvd.CVD) {
	t.Helper()
	err := c.WithExclusive(func() error {
		m, err := c.Rlist()
		if err != nil {
			return err
		}
		tree, err := vgraph.ToTree(c.Graph())
		if err != nil {
			return err
		}
		res, err := partition.SolveStorageConstraint(tree, 2*tree.DistinctRecords(), partition.LyreSplitOptions{})
		if err != nil {
			return err
		}
		return m.ApplyPartitioning(res.Partitioning)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// storeQueries are fixed queries over the columns every storeHistory has:
// metadata only; tuples with and without pushed-down filters, in both operand
// orders; the special attributes id and all, and the hidden rid; aggregates,
// in targets and in where; unique; sort by; P/D/N with hops.
var storeQueries = []string{
	`range of V is Version retrieve V.id, V.author, V.commit_msg, V.creation_ts`,
	`range of V is Version retrieve V.all where V.author = "bob" sort by V.creation_ts desc`,
	`range of V is Version range of E is V.Relations.Tuples retrieve V.id, E.id, E.all, E.rid`,
	`range of V is Version range of E is V.Relations.Tuples(a > 3) retrieve V.id, E.id, E.k, E.a`,
	`range of V is Version range of E is V.Relations.Tuples("3" >= a) retrieve V.id, E.id, E.k, E.a`,
	`range of V is Version range of E is V.Relations.Tuples(s = "s1") retrieve V.id, E.all`,
	`range of V is Version range of E is V.Relations.Tuples(a != 2.5) retrieve V.id, E.k`,
	`range of V is Version range of E is V.Relations.Tuples(id = 0) retrieve V.id, E.k`,
	`range of V is Version range of E is V.Relations.Tuples retrieve V.id, count(E), sum(E.a), avg(E.a), min(E.a), max(E.a), max(E.s)`,
	`range of V is Version range of E is V.Relations.Tuples(k > 2) retrieve V.id where count(E.k where E.a > 3) > 1`,
	`range of V is Version range of E is V.Relations.Tuples retrieve unique E.s`,
	`range of V is Version range of E is V.Relations.Tuples retrieve unique E.a, E.s sort by E.a desc`,
	`range of V is Version range of E is V.Relations.Tuples(a < 5) retrieve V.id, E.k sort by E.a`,
	`range of V is Version(id = "v1") range of N is V.N(2) range of E is N.Relations.Tuples(a >= 2) retrieve N.id, count(E), sum(E.k)`,
	`range of V is Version(id = "v3") range of P is V.P(1) range of E is P.Relations.Tuples retrieve P.id, E.all`,
	`range of V is Version(id = "v2") range of D is V.D() range of E is D.Relations(name = "d").Tuples(s != "s0") retrieve D.id, min(E.a)`,
}

// pushdownTwins pair a query whose tuple filter pushes down with the same
// filter in its where clause, which is tested tuple by tuple.
var pushdownTwins = [][2]string{
	{`range of V is Version range of E is V.Relations.Tuples(a > 3) retrieve V.id, E.id, E.k`,
		`range of V is Version range of E is V.Relations.Tuples retrieve V.id, E.id, E.k where E.a > 3`},
	{`range of V is Version range of E is V.Relations.Tuples("3" >= a) retrieve V.id, E.id, E.all`,
		`range of V is Version range of E is V.Relations.Tuples retrieve V.id, E.id, E.all where "3" >= E.a`},
	{`range of V is Version range of E is V.Relations.Tuples(s = "s1") retrieve V.id, E.id, E.a`,
		`range of V is Version range of E is V.Relations.Tuples retrieve V.id, E.id, E.a where E.s = "s1"`},
}

// storeQuery draws a query over c's columns, an unknown one among them.
func storeQuery(ch *chooser, c *cvd.CVD) string {
	var cols []string
	for _, col := range c.Schema().Columns {
		cols = append(cols, col.Name)
	}
	cols = append(cols, "zz")
	col := func() string { return cols[ch.intn(len(cols))] }
	op := func() string { return []string{"=", "!=", "<", "<=", ">", ">="}[ch.intn(6)] }
	lit := func() string {
		return []string{`"s1"`, `"3"`, strconv.Itoa(ch.intn(10)), strconv.Itoa(ch.intn(10)) + ".5", "-1"}[ch.intn(5)]
	}
	filter := func() string {
		switch ch.intn(4) {
		case 0:
			return ""
		case 1:
			return "(" + col() + " " + op() + " " + lit() + ")"
		case 2:
			// A number right after "(" is a hop count, so a literal on the
			// left is a string.
			return "(" + []string{`"s1"`, `"3"`}[ch.intn(2)] + " " + op() + " " + col() + ")"
		default:
			return "(id " + op() + " " + strconv.Itoa(ch.intn(5)) + ")"
		}
	}
	version := func() string { return `"v` + strconv.Itoa(1+ch.intn(c.NumVersions())) + `"` }
	tuples := "range of V is Version range of E is V.Relations.Tuples" + filter()
	switch ch.intn(8) {
	case 0:
		return `range of V is Version retrieve V.id, V.author where V.creation_ts ` + op() + ` ` + strconv.Itoa(1577836800+3600*ch.intn(6))
	case 1:
		return tuples + " retrieve V.id, E.id, E.all"
	case 2:
		return tuples + " retrieve V.id, E." + col() + ", E." + col()
	case 3:
		a := col()
		return tuples + fmt.Sprintf(" retrieve V.id, count(E), sum(E.%s), avg(E.%s), min(E.%s), max(E.%s)", a, a, a, a)
	case 4:
		return tuples + fmt.Sprintf(" retrieve V.id where count(E.%s where E.%s %s %s) %s %d", col(), col(), op(), lit(), op(), ch.intn(6))
	case 5:
		return tuples + " retrieve unique E." + col()
	case 6:
		return tuples + " retrieve V.id, E." + col() + " sort by E." + col() + []string{"", " desc"}[ch.intn(2)]
	default:
		return fmt.Sprintf("range of V is Version(id = %s) range of W is V.%s(%d) range of E is W.Relations.Tuples%s retrieve W.id, count(E), max(E.%s)",
			version(), []string{"P", "D", "N"}[ch.intn(3)], ch.intn(3), filter(), col())
	}
}

// pushdownTwin draws a pair for pushdownTwins over c's columns.
func pushdownTwin(ch *chooser, c *cvd.CVD) [2]string {
	cols := c.Schema().Columns
	a := cols[ch.intn(len(cols))].Name
	op := []string{"=", "!=", "<", "<=", ">", ">="}[ch.intn(6)]
	lit := []string{`"s1"`, `"3"`, "2", "4.5", "-1"}[ch.intn(5)]
	filter, where := a+" "+op+" "+lit, "E."+a+" "+op+" "+lit
	if lit[0] == '"' && ch.intn(2) == 0 {
		// A number right after "(" is a hop count: only a string literal
		// can come first.
		filter, where = lit+" "+op+" "+a, lit+" "+op+" E."+a
	}
	const from, target = "range of V is Version range of E is V.Relations.Tuples", " retrieve V.id, E.id, E.all"
	return [2]string{from + "(" + filter + ")" + target, from + target + " where " + where}
}

// sameResult compares two query answers column by column and cell by cell,
// by typed identity, in order.
func sameResult(got, want *Result) error {
	if !slices.Equal(got.Columns, want.Columns) {
		return fmt.Errorf("columns %v, want %v", got.Columns, want.Columns)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows, want %d:\n%v\n%v", len(got.Rows), len(want.Rows), got.Rows, want.Rows)
	}
	for i := range got.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			return fmt.Errorf("row %d is %v, want %v", i, got.Rows[i], want.Rows[i])
		}
		for j := range got.Rows[i] {
			if !got.Rows[i][j].Identical(want.Rows[i][j]) {
				return fmt.Errorf("row %d is %v, want %v", i, got.Rows[i], want.Rows[i])
			}
		}
	}
	return nil
}

// checkStoreEqualsCopy runs queries against c's store-backed repository and
// against the copy: the answers are the same. The two queries
// of each twin answer the same on the store.
func checkStoreEqualsCopy(t *testing.T, c *cvd.CVD, queries []string, twins [][2]string) {
	t.Helper()
	store, err := FromCVD(c)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := copyFromCVD(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, twin := range twins {
		pushed, err := NewEvaluator(store).Run(twin[0])
		if err != nil {
			t.Fatal(err)
		}
		tested, err := NewEvaluator(store).Run(twin[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(pushed, tested); err != nil {
			t.Fatalf("%v: %s\nagainst %s\n%v", c.Model(), twin[0], twin[1], err)
		}
	}
	for _, q := range queries {
		got, err := NewEvaluator(store).Run(q)
		if err != nil {
			t.Fatalf("%v: %s on the store: %v", c.Model(), q, err)
		}
		want, err := NewEvaluator(copied).Run(q)
		if err != nil {
			t.Fatalf("%v: %s on the copy: %v", c.Model(), q, err)
		}
		if err := sameResult(got, want); err != nil {
			t.Fatalf("%v: %s\n%v", c.Model(), q, err)
		}
	}
}

// TestQueryOnStoreEqualsCopy is the store-backed relations' differential test:
// over seeded histories of every model, and of a partitioned split-by-rlist
// CVD, every query answers what it answers on a copy of each version, and a
// pushed-down tuple filter what the same test in the where clause does.
func TestQueryOnStoreEqualsCopy(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, model := range allModels {
			ch := &chooser{rng: rand.New(rand.NewSource(seed))}
			c := storeHistory(t, ch, model)
			queries, twins := slices.Clone(storeQueries), slices.Clone(pushdownTwins)
			for q := 0; q < 20; q++ {
				queries, twins = append(queries, storeQuery(ch, c)), append(twins, pushdownTwin(ch, c))
			}
			checkStoreEqualsCopy(t, c, queries, twins)
			if model == cvd.SplitByRlist {
				optimize(t, c)
				checkStoreEqualsCopy(t, c, queries, twins)
			}
		}
	}
}

// FuzzQueryOnStore lets the fuzzer script the history, the model, the
// partitioning and the queries of TestQueryOnStoreEqualsCopy.
func FuzzQueryOnStore(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{0, 1, 5, 0, 3, 1, 2, 9, 1, 0, 0, 2, 1, 3})
	f.Add(int64(3), []byte{3, 9, 2, 1, 1, 0, 7, 7, 4, 4, 0, 0, 1, 2, 1, 2, 6})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		ch := &chooser{script: script, rng: rand.New(rand.NewSource(seed))}
		model := allModels[ch.intn(len(allModels))]
		c := storeHistory(t, ch, model)
		if model == cvd.SplitByRlist && ch.intn(2) == 0 {
			optimize(t, c)
		}
		queries := []string{storeQueries[ch.intn(len(storeQueries))]}
		for q := 0; q < 4; q++ {
			queries = append(queries, storeQuery(ch, c))
		}
		checkStoreEqualsCopy(t, c, queries, [][2]string{pushdownTwin(ch, c), pushdownTwin(ch, c)})
	})
}

// TestQueryCostsWhatItTouches is VQuel's wall-clock-free gate, on SCI_10K: a
// query allocates for what it reads, not for the history. One that touches no
// record, and one that filters one version, each allocate at most 1 MB with
// the repository built; counting every version's records allocates at most
// 5 B per (version, record) edge.
func TestQueryCostsWhatItTouches(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the program's")
	}
	cfg, err := benchmark.Preset("SCI_10K", 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := benchmark.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := benchmark.LoadCVD(relstore.NewDatabase("gate"), "sci", w, cvd.SplitByRlist)
	if err != nil {
		t.Fatal(err)
	}
	var edges int64
	for _, v := range c.Versions() {
		edges += int64(len(c.RecordsOf(v)))
	}
	// allocated returns the bytes fn allocates and how long it takes.
	allocated := func(fn func() error) (uint64, time.Duration) {
		t.Helper()
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		took := time.Since(start)
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc, took
	}
	query := func(q string, rows int) func() error {
		return func() error {
			repo, err := FromCVD(c)
			if err != nil {
				return err
			}
			res, err := NewEvaluator(repo).Run(q)
			if err == nil && len(res.Rows) != rows {
				err = fmt.Errorf("%s: %d rows, want %d", q, len(res.Rows), rows)
			}
			return err
		}
	}
	pushed := `range of V is Version(id = "v50") range of E is V.Relations.Tuples(a01 > 990000) retrieve E.key`
	v50, err := c.NamedPredicate("a01", ">", relstore.Int(990000))
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.ScanVersions([]vgraph.VersionID{50}, v50, 0)
	if err != nil {
		t.Fatal(err)
	}
	const mb = 1e6
	for _, gate := range []struct {
		query string
		rows  int
	}{
		{`range of V is Version retrieve V.id`, c.NumVersions()},
		{pushed, len(want)},
	} {
		bytes, took := allocated(query(gate.query, gate.rows))
		t.Logf("FromCVD + %s: %.3f MB in %v on %d versions, %d edges", strings.Join(strings.Fields(gate.query), " "), float64(bytes)/mb, took, c.NumVersions(), edges)
		if bytes > mb {
			t.Errorf("FromCVD + %s allocates %.3f MB, want <= 1 MB", gate.query, float64(bytes)/mb)
		}
	}
	bytes, took := allocated(func() error {
		_, err := c.AggregateByVersion(nil, nil, cvd.CountAgg())
		return err
	})
	per := float64(bytes) / float64(edges)
	t.Logf("AggregateByVersion(count) over %d edges: %.3f MB, %.2f B per edge, in %v", edges, float64(bytes)/mb, per, took)
	if per > 5 {
		t.Errorf("AggregateByVersion(count) allocates %.2f B per edge, want <= 5", per)
	}
}
