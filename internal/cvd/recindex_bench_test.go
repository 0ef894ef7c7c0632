package cvd

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/relstore"
	"repro/internal/vgraph"
)

// benchRows returns n rows of the reference benchmark's shape: an integer
// key, unique among them, and 19 random integer attributes.
func benchRows(rng *rand.Rand, n, firstKey int) (relstore.Schema, []relstore.Row) {
	const width = 20
	cols := []relstore.Column{{Name: "key", Type: relstore.TypeInt}}
	for i := 1; i < width; i++ {
		cols = append(cols, relstore.Column{Name: fmt.Sprintf("a%02d", i), Type: relstore.TypeInt})
	}
	rows := make([]relstore.Row, n)
	for k := range rows {
		rows[k] = relstore.Row{relstore.Int(int64(firstKey + k))}
		for i := 1; i < width; i++ {
			rows[k] = append(rows[k], relstore.Int(rng.Int63n(1_000_000)))
		}
	}
	return relstore.MustSchema(cols, "key"), rows
}

// BenchmarkCommitFullVersion commits a whole 16 K-row version of 20 integer
// columns (one of them the primary key) on top of the previous one, 50 rows
// changed: the shape of every full-version commit the reference benchmark's
// set-up makes, which matches every row against the record index. It reports
// the time per staged row.
func BenchmarkCommitFullVersion(b *testing.B) {
	const n, changed = 16 << 10, 50
	rng := rand.New(rand.NewSource(11))
	schema, rows := benchRows(rng, n, 0)
	c, err := Init(relstore.NewDatabase("bench"), "d", schema, rows, Options{})
	if err != nil {
		b.Fatal(err)
	}
	latest := vgraph.VersionID(1)
	commit := func() {
		for k := 0; k < changed; k++ {
			r := rng.Intn(n)
			rows[r] = rows[r].Clone()
			rows[r][1+rng.Intn(len(rows[r])-1)] = relstore.Int(rng.Int63n(1_000_000))
		}
		v, err := c.Commit([]vgraph.VersionID{latest}, rows, schema, "m", "b")
		if err != nil {
			b.Fatal(err)
		}
		latest = v
	}
	commit() // builds the record index
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commit()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}

// BenchmarkBuildIndex builds the record index over a 64 K-record catalog —
// four versions of 16 K keys, each a new record per key — as the first commit
// after a reopen or after a schema evolution does. It reports the time per
// record.
func BenchmarkBuildIndex(b *testing.B) {
	const n, versions = 16 << 10, 4
	rng := rand.New(rand.NewSource(12))
	schema, rows := benchRows(rng, n, 0)
	c, err := Init(relstore.NewDatabase("bench"), "d", schema, rows, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for v := 1; v < versions; v++ {
		_, rows := benchRows(rng, n, 0)
		if _, err := c.Commit([]vgraph.VersionID{vgraph.VersionID(v)}, rows, schema, "m", "b"); err != nil {
			b.Fatal(err)
		}
	}
	records := c.NumRecords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if x := c.buildIndex(c.schema); x == nil {
			b.Fatal("no index")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
}
