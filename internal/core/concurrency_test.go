package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cvd"
	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// The stress tests in this file lock in the concurrent execution layer: many
// goroutines hammering one engine with a mix of commits, checkouts, diffs,
// and VQuel queries. They are written to run under `go test -race`, where
// any unsynchronized access to shared engine state fails the build.

func stressSchema() relstore.Schema {
	return relstore.MustSchema([]relstore.Column{
		{Name: "k", Type: relstore.TypeInt},
		{Name: "v", Type: relstore.TypeInt},
	}, "k")
}

func stressRows(n, salt int) []relstore.Row {
	rows := make([]relstore.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, relstore.Row{relstore.Int(int64(i)), relstore.Int(int64(salt*1000 + i))})
	}
	return rows
}

// wideSchema is stressSchema widened by one column.
func wideSchema() relstore.Schema {
	return relstore.MustSchema(append(stressSchema().Columns, relstore.Column{Name: "w", Type: relstore.TypeInt}), "k")
}

// TestConcurrentMixedWorkload runs committers, checkout clients, and query
// clients against a single CVD at the same time. One committer widens the
// schema halfway, so VQuel queries read the catalog view they were handed
// while commits append to the catalog and add a column to it.
func TestConcurrentMixedWorkload(t *testing.T) {
	engine := Open("stress", WithWorkers(4))
	c, err := engine.Init("data", stressSchema(), stressRows(60, 0), cvd.Options{Author: "seed", Message: "v1"})
	if err != nil {
		t.Fatal(err)
	}

	const (
		committers = 3
		readers    = 4
		queriers   = 2
		iters      = 8
	)
	var wg sync.WaitGroup
	errCh := make(chan error, committers+readers+queriers)

	// Committers: each derives fresh versions from version 1 repeatedly.
	for g := 0; g < committers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rows, schema := stressRows(60, g*iters+i+1), stressSchema()
				if g == 0 && i >= iters/2 {
					for k := range rows {
						rows[k] = append(rows[k], relstore.Int(int64(k)))
					}
					schema = wideSchema()
				}
				if _, err := c.Commit([]vgraph.VersionID{1}, rows, schema, fmt.Sprintf("c%d-%d", g, i), "committer"); err != nil {
					errCh <- fmt.Errorf("committer %d: %w", g, err)
					return
				}
			}
		}(g)
	}

	// Checkout clients: check out whatever versions currently exist (single
	// and merged multi-version checkouts), then discard the staging tables.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				vs := c.Versions()
				if len(vs) == 0 {
					continue
				}
				pick := []vgraph.VersionID{vs[i%len(vs)]}
				if len(vs) > 1 && i%2 == 0 {
					pick = append(pick, vs[(i+1)%len(vs)])
				}
				tab := fmt.Sprintf("r%d_%d", g, i)
				if _, err := engine.Checkout("data", pick, tab); err != nil {
					errCh <- fmt.Errorf("reader %d: %w", g, err)
					return
				}
				c.DiscardCheckout(tab)
			}
		}(g)
	}

	// Query clients: diffs, VQuel, and versioned aggregates.
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				vs := c.Versions()
				if len(vs) >= 2 {
					if _, err := engine.Diff("data", vs[0], vs[len(vs)-1]); err != nil {
						errCh <- fmt.Errorf("querier %d diff: %w", g, err)
						return
					}
				}
				if _, err := engine.Query("data", `range of V is Version
					retrieve V.id`); err != nil {
					errCh <- fmt.Errorf("querier %d vquel: %w", g, err)
					return
				}
				agg, err := c.SumAgg("v")
				if err != nil {
					errCh <- err
					return
				}
				if _, err := c.AggregateByVersion(nil, nil, agg); err != nil {
					errCh <- fmt.Errorf("querier %d agg: %w", g, err)
					return
				}
				if err := checkTupleQueries(engine, c, agg); err != nil {
					errCh <- fmt.Errorf("querier %d: %w", g, err)
					return
				}
			}
		}(g)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Every committer iteration must have produced a version: 1 initial +
	// committers*iters commits.
	if got, want := c.NumVersions(), 1+committers*iters; got != want {
		t.Errorf("NumVersions = %d, want %d", got, want)
	}
}

// checkTupleQueries runs two VQuel queries that read records. A pushed-down
// filter with a sum must agree, version by version, with AggregateByVersion
// under the same predicate, and every E.all of one query must have as many
// fields as one of the schemas the CVD has had: all of them the same number,
// that of the query's snapshot.
func checkTupleQueries(engine *Engine, c *cvd.CVD, sum cvd.Aggregator) error {
	res, err := engine.Query("data", `range of V is Version
		range of E is V.Relations(name = "data").Tuples(v >= 1000)
		retrieve V.id, sum(E.v)`)
	if err != nil {
		return fmt.Errorf("vquel sum: %w", err)
	}
	pred, err := c.NamedPredicate("v", ">=", relstore.Int(1000))
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		var v vgraph.VersionID
		if _, err := fmt.Sscanf(row[0].AsString(), "v%d", &v); err != nil {
			return err
		}
		want, err := c.AggregateByVersion([]vgraph.VersionID{v}, pred, sum)
		if err != nil {
			return err
		}
		if !row[1].Identical(want[v]) {
			return fmt.Errorf("vquel sum(E.v) of %v = %v, AggregateByVersion says %v", row[0], row[1], want[v])
		}
	}
	res, err = engine.Query("data", `range of E is Version(id = "v1").Relations(name = "data").Tuples
		retrieve E.all`)
	if err != nil {
		return fmt.Errorf("vquel all: %w", err)
	}
	width := len(strings.Split(res.Rows[0][0].AsString(), "|"))
	if width != len(stressSchema().Columns) && width != len(wideSchema().Columns) {
		return fmt.Errorf("E.all %v has %d fields, no schema of the CVD's", res.Rows[0][0], width)
	}
	for _, row := range res.Rows {
		if n := len(strings.Split(row[0].AsString(), "|")); n != width {
			return fmt.Errorf("E.all %v has %d fields, another tuple of the same query %d", row[0], n, width)
		}
	}
	return nil
}

// TestConcurrentCheckoutSameName verifies that two checkouts racing for one
// staging-table name resolve cleanly: exactly one wins, the other errors.
func TestConcurrentCheckoutSameName(t *testing.T) {
	engine := Open("stress2")
	c, err := engine.Init("data", stressSchema(), stressRows(20, 0), cvd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const attempts = 20
	for i := 0; i < attempts; i++ {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				_, errs[g] = engine.Checkout("data", []vgraph.VersionID{1}, "contested")
			}(g)
		}
		wg.Wait()
		won := 0
		for _, err := range errs {
			if err == nil {
				won++
			}
		}
		if won != 1 {
			t.Fatalf("attempt %d: %d checkouts claimed table %q, want exactly 1 (errs: %v)", i, won, "contested", errs)
		}
		c.DiscardCheckout("contested")
	}
}

// TestConcurrentEngineRegistry exercises the engine-level registry lock:
// goroutines creating, listing, and dropping distinct CVDs.
func TestConcurrentEngineRegistry(t *testing.T) {
	engine := Open("registry")
	const n = 8
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("cvd%d", g)
			if _, err := engine.Init(name, stressSchema(), stressRows(10, g), cvd.Options{}); err != nil {
				t.Error(err)
				return
			}
			engine.List()
			if _, err := engine.Checkout(name, []vgraph.VersionID{1}, name+"_w"); err != nil {
				t.Error(err)
				return
			}
			if _, err := engine.Commit(name, name+"_w", "bump", "g"); err != nil {
				t.Error(err)
				return
			}
			if g%2 == 0 {
				if err := engine.Drop(name); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(engine.List()); got != n/2 {
		t.Errorf("List() = %d CVDs, want %d", got, n/2)
	}
}

// TestDropDuringCheckouts drops CVDs while checkout, commit, and List
// traffic is in flight. Drop unlinks under the registry lock but runs the
// teardown (and, on durable engines, the journal fence) outside it, so
// (a) an in-flight checkout of the dropped CVD either completes before the
// drop or fails cleanly with "has been dropped", and (b) List/Checkout
// traffic on *other* CVDs never stalls behind or races the teardown. Run
// under -race this pins the lock discipline on both engine flavors.
func TestDropDuringCheckouts(t *testing.T) {
	t.Run("ephemeral", func(t *testing.T) {
		dropDuringCheckouts(t, Open("dropstress", WithWorkers(2)))
	})
	t.Run("durable", func(t *testing.T) {
		engine, err := OpenDurable("dropstress", t.TempDir(), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		defer engine.Close()
		dropDuringCheckouts(t, engine)
	})
}

func dropDuringCheckouts(t *testing.T, engine *Engine) {
	// One long-lived CVD that is never dropped, plus a churn target per round.
	if _, err := engine.Init("stable", stressSchema(), stressRows(50, 0), cvd.Options{}); err != nil {
		t.Fatal(err)
	}
	const rounds = 12
	for round := 0; round < rounds; round++ {
		name := fmt.Sprintf("victim%d", round)
		victim, err := engine.Init(name, stressSchema(), stressRows(120, round), cvd.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := victim.Commit([]vgraph.VersionID{1}, stressRows(120, round+1), stressSchema(), "v2", "d"); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		// Checkout clients hammering the victim while it is dropped.
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 6; i++ {
					tab := fmt.Sprintf("v%d_r%d_%d", round, g, i)
					_, err := engine.Checkout(name, []vgraph.VersionID{vgraph.VersionID(i%2 + 1)}, tab)
					if err == nil {
						victim.DiscardCheckout(tab)
						continue
					}
					// The only acceptable failures are the drop landing first.
					if !strings.Contains(err.Error(), "has been dropped") && !strings.Contains(err.Error(), "unknown CVD") {
						t.Errorf("round %d reader %d: unexpected error: %v", round, g, err)
						return
					}
				}
			}(g)
		}
		// Queriers: a VQuel query through the engine and a select on the CVD
		// itself, which answer from the victim or refuse.
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 6; i++ {
				_, err := engine.Query(name, `range of E is Version(id = "v2").Relations.Tuples(v > 10) retrieve E.k`)
				if err == nil {
					_, err = victim.ScanVersions([]vgraph.VersionID{1, 2}, nil, 0)
				}
				if err != nil && !strings.Contains(err.Error(), "has been dropped") && !strings.Contains(err.Error(), "unknown CVD") {
					t.Errorf("round %d querier: unexpected error: %v", round, err)
					return
				}
			}
		}()
		// Committers racing the drop the same way.
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 4; i++ {
				_, err := victim.Commit([]vgraph.VersionID{1}, stressRows(120, 900+i), stressSchema(), "racing", "d")
				_ = err // a commit racing Drop may succeed or fail; -race is the assertion
			}
		}()
		// List/lookup traffic on the rest of the engine must stay responsive
		// and consistent throughout.
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 20; i++ {
				names := engine.List()
				found := false
				for _, n := range names {
					if n == "stable" {
						found = true
					}
				}
				if !found {
					t.Errorf("round %d: List lost the stable CVD: %v", round, names)
					return
				}
				if _, err := engine.CVD("stable"); err != nil {
					t.Errorf("round %d: stable lookup failed: %v", round, err)
					return
				}
			}
		}()
		// The drop itself, mid-traffic.
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := engine.Drop(name); err != nil {
				t.Errorf("round %d: drop: %v", round, err)
			}
		}()
		close(start)
		wg.Wait()
		if _, err := engine.CVD(name); err == nil {
			t.Fatalf("round %d: %s still registered after drop", round, name)
		}
	}
	// The stable CVD survived it all and still works.
	if _, err := engine.Checkout("stable", []vgraph.VersionID{1}, "final"); err != nil {
		t.Fatal(err)
	}
}

// TestOptimizeDuringCheckouts runs the partition optimizer while checkout
// clients are live; WithExclusive must fence them off.
func TestOptimizeDuringCheckouts(t *testing.T) {
	engine := Open("stress3", WithWorkers(2))
	c, err := engine.Init("data", stressSchema(), stressRows(80, 0), cvd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Build some history so there is something to partition.
	for i := 0; i < 6; i++ {
		if _, err := c.Commit([]vgraph.VersionID{vgraph.VersionID(i + 1)}, stressRows(80, i+1), stressSchema(), "m", "a"); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tab := fmt.Sprintf("opt_r%d_%d", g, i)
				if _, err := engine.Checkout("data", []vgraph.VersionID{vgraph.VersionID(i%7 + 1)}, tab); err != nil {
					t.Error(err)
					return
				}
				c.DiscardCheckout(tab)
			}
		}(g)
	}
	for i := 0; i < 3; i++ {
		if _, err := engine.Optimize("data", 2.0); err != nil {
			t.Error(err)
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
}
