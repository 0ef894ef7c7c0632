package recset

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// naive is the reference implementation: a plain map-based set with the same
// operations, against which the compressed set is property-checked.
type naive map[int64]struct{}

func (n naive) slice() []int64 {
	out := make([]int64, 0, len(n))
	for v := range n {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func checkAgainst(t *testing.T, s *Set, n naive, ctx string) {
	t.Helper()
	if s.Len() != int64(len(n)) {
		t.Fatalf("%s: Len = %d, want %d", ctx, s.Len(), len(n))
	}
	got := s.Slice()
	want := n.slice()
	if len(got) != len(want) {
		t.Fatalf("%s: Slice has %d elements, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %d, want %d", ctx, i, got[i], want[i])
		}
	}
	var walked []int64
	s.Containers(func(base int64, lows []uint16, bitmap []uint64) bool {
		for _, lo := range lows {
			walked = append(walked, base|int64(lo))
		}
		for w, word := range bitmap {
			for b := 0; b < 64; b++ {
				if word&(1<<b) != 0 {
					walked = append(walked, base|int64(w<<6|b))
				}
			}
		}
		return true
	})
	if len(walked) != len(want) {
		t.Fatalf("%s: the containers hold %d elements, want %d", ctx, len(walked), len(want))
	}
	for i := range walked {
		if walked[i] != want[i] {
			t.Fatalf("%s: container element %d = %d, want %d", ctx, i, walked[i], want[i])
		}
	}
	lo, okLo := s.Min()
	hi, okHi := s.Max()
	if okLo != (len(want) > 0) || okHi != okLo || okLo && (lo != want[0] || hi != want[len(want)-1]) {
		t.Fatalf("%s: Min %d (%v), Max %d (%v) of %d elements", ctx, lo, okLo, hi, okHi, len(want))
	}
	// Spot-check Contains both ways.
	for i := 0; i < len(want) && i < 64; i++ {
		if !s.Contains(want[i]) {
			t.Fatalf("%s: Contains(%d) = false for member", ctx, want[i])
		}
	}
}

// TestPropertyRandomOps drives randomized Add/Remove/Contains sequences and
// asserts the compressed set matches the map reference after every batch,
// across value distributions that exercise array containers, bitmap
// containers, the 4096-entry conversion threshold, container boundaries, and
// negative values.
func TestPropertyRandomOps(t *testing.T) {
	distributions := []struct {
		name string
		draw func(rng *rand.Rand) int64
	}{
		{"dense-small", func(rng *rand.Rand) int64 { return rng.Int63n(5_000) }},
		{"dense-wide", func(rng *rand.Rand) int64 { return rng.Int63n(200_000) }},
		{"sparse", func(rng *rand.Rand) int64 { return rng.Int63n(1 << 40) }},
		{"boundary", func(rng *rand.Rand) int64 {
			base := int64(rng.Intn(4)) << 16
			return base + rng.Int63n(8) - 4 + 65534
		}},
		{"negative", func(rng *rand.Rand) int64 { return rng.Int63n(100_000) - 50_000 }},
	}
	for _, dist := range distributions {
		t.Run(dist.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			s := New()
			ref := make(naive)
			for batch := 0; batch < 40; batch++ {
				for op := 0; op < 500; op++ {
					v := dist.draw(rng)
					if rng.Intn(3) == 0 {
						got := s.Remove(v)
						_, had := ref[v]
						if got != had {
							t.Fatalf("Remove(%d) = %v, want %v", v, got, had)
						}
						delete(ref, v)
					} else {
						got := s.Add(v)
						_, had := ref[v]
						if got == had {
							t.Fatalf("Add(%d) = %v, want %v", v, got, !had)
						}
						ref[v] = struct{}{}
					}
				}
				checkAgainst(t, s, ref, dist.name)
			}
		})
	}
}

// TestPropertySetAlgebra checks Intersect/Union/Difference and their
// cardinality shortcuts against the map reference across random set pairs,
// including pairs dense enough to sit in bitmap containers.
func TestPropertySetAlgebra(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		limit := int64(10_000)
		if trial%3 == 0 {
			limit = 1 << 30 // sparse regime
		}
		na, nb := make(naive), make(naive)
		size := 1 + rng.Intn(9000) // crosses the 4096 array→bitmap threshold
		for i := 0; i < size; i++ {
			na[rng.Int63n(limit)] = struct{}{}
		}
		for i := 0; i < 1+rng.Intn(9000); i++ {
			v := rng.Int63n(limit)
			if rng.Intn(2) == 0 {
				// Force overlap with a.
				if as := na.slice(); len(as) > 0 {
					v = as[rng.Intn(len(as))]
				}
			}
			nb[v] = struct{}{}
		}
		a, b := FromSlice(na.slice()), FromSorted(nb.slice())

		wantAnd, wantOr, wantDiff := make(naive), make(naive), make(naive)
		for v := range na {
			wantOr[v] = struct{}{}
			if _, ok := nb[v]; ok {
				wantAnd[v] = struct{}{}
			} else {
				wantDiff[v] = struct{}{}
			}
		}
		for v := range nb {
			wantOr[v] = struct{}{}
		}
		checkAgainst(t, And(a, b), wantAnd, "And")
		checkAgainst(t, Or(a, b), wantOr, "Or")
		checkAgainst(t, AndNot(a, b), wantDiff, "AndNot")
		if got := AndLen(a, b); got != int64(len(wantAnd)) {
			t.Fatalf("AndLen = %d, want %d", got, len(wantAnd))
		}
		if got := OrLen(a, b); got != int64(len(wantOr)) {
			t.Fatalf("OrLen = %d, want %d", got, len(wantOr))
		}
		u := a.Clone()
		u.UnionWith(b)
		checkAgainst(t, u, wantOr, "UnionWith")
		// UnionWith must not alias b: mutating the union leaves b intact.
		u.Add(limit + 12345)
		checkAgainst(t, b, nb, "b after union mutation")
		checkAgainst(t, a, na, "a after operations")
		if !Equal(And(a, a), a) {
			t.Fatal("And(a, a) != a")
		}
	}
}

// TestForEachOrderAndEarlyStop verifies ascending iteration and early stop.
func TestForEachOrderAndEarlyStop(t *testing.T) {
	s := FromSlice([]int64{70000, 3, -5, 123456789, 3, 65536, 65535})
	var got []int64
	s.ForEach(func(v int64) bool {
		got = append(got, v)
		return true
	})
	want := []int64{-5, 3, 65535, 65536, 70000, 123456789}
	if len(got) != len(want) {
		t.Fatalf("ForEach yielded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", got, want)
		}
	}
	count := 0
	s.ForEach(func(int64) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d elements, want 3", count)
	}
}

// TestNilAndEmpty exercises nil-receiver and empty-set behavior used by
// callers that treat "no set" as the empty set.
func TestNilAndEmpty(t *testing.T) {
	var nilSet *Set
	if nilSet.Len() != 0 || nilSet.Contains(1) || !nilSet.IsEmpty() {
		t.Fatal("nil set should behave as empty")
	}
	if got := And(nilSet, FromSlice([]int64{1})); got.Len() != 0 {
		t.Fatal("And with nil should be empty")
	}
	if got := AndNot(FromSlice([]int64{1, 2}), nilSet); got.Len() != 2 {
		t.Fatal("AndNot with nil b should equal a")
	}
	e := New()
	e.UnionWith(nilSet)
	if e.Len() != 0 {
		t.Fatal("UnionWith(nil) should be a no-op")
	}
}

// TestConcurrentReads shares one set across goroutines doing reads only, the
// access pattern of parallel checkout; run with -race.
func TestConcurrentReads(t *testing.T) {
	vals := make([]int64, 0, 50_000)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50_000; i++ {
		vals = append(vals, rng.Int63n(1_000_000))
	}
	s := FromSlice(vals)
	other := FromSlice(vals[:10_000])
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Contains(int64(g*1000 + i))
			}
			AndLen(s, other)
			n := int64(0)
			s.ForEach(func(int64) bool {
				n++
				return n < 1000
			})
		}(g)
	}
	wg.Wait()
}

// TestFromSortedSizesContainersFromRuns: FromSorted builds each container
// straight from its run of the input. Dense runs become bitmaps, sparse ones
// exact arrays, duplicates are skipped on either side of the threshold, and a
// typed id list needs no copy.
func TestFromSortedSizesContainersFromRuns(t *testing.T) {
	type id int64
	var vals []id
	want := make(naive)
	add := func(v int64, times int) {
		for ; times > 0; times-- {
			vals = append(vals, id(v))
		}
		want[v] = struct{}{}
	}
	for v := int64(-70000); v < -69990; v++ { // a sparse run below zero
		add(v, 1)
	}
	for v := int64(0); v < 5000; v++ { // dense: a bitmap
		add(v, 1+int(v%2))
	}
	for v := int64(1 << 16); v < 1<<16+3000; v++ { // 6000 values, 3000 distinct: an array after all
		add(v, 2)
	}
	add(1<<40, 3)
	s := FromSorted(vals)
	checkAgainst(t, s, want, "FromSorted")
	kinds := make([]bool, len(s.cs))
	for i, c := range s.cs {
		kinds[i] = c.bitmap != nil
	}
	if c := s.cs[0]; cap(c.array) != len(c.array) {
		t.Fatalf("a run without duplicates keeps %d slots for %d values", cap(c.array), len(c.array))
	}
	if len(kinds) != 4 || kinds[0] || !kinds[1] || kinds[2] || kinds[3] {
		t.Fatalf("container kinds (bitmap?) %v, want array, bitmap, array, array", kinds)
	}
	if !Equal(s, FromSlice(want.slice())) {
		t.Fatal("FromSorted and FromSlice disagree")
	}
}
