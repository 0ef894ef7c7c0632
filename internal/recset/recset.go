// Package recset implements a compressed, sorted set of int64 record
// identifiers — the record-set subsystem behind the version-record bipartite
// graph, the partition optimizer, and partitioned storage maintenance.
//
// The layout is roaring-style (Chambi et al.; the same structure dolt uses
// for chunk membership): values are split into a high key (value >> 16) and a
// 16-bit low part. Each key owns one container holding the low parts, either
// as a sorted []uint16 array (sparse, at most 4096 entries) or as a 64 Ki-bit
// bitmap (dense). Set operations work container-by-container, so Intersect /
// Union / Difference cost O(min(|a|, |b|)) array merges for sparse data and
// word-parallel bit operations for dense runs, and cardinalities (Len,
// AndLen, OrLen) are available without materializing a result.
//
// Sets are not safe for concurrent mutation, but any number of goroutines may
// read (Contains, AndLen, ForEach, ...) a set concurrently as long as nobody
// mutates it — the access pattern of the checkout and partitioning hot paths,
// which build a set once and then share it read-only.
package recset

import (
	"math/bits"
	"slices"
)

const (
	// arrayMaxLen is the container cardinality above which a sorted-array
	// container converts to a bitmap: 4096 uint16 entries occupy the same
	// 8 KiB as the bitmap, so beyond it the bitmap is never larger and every
	// operation on it is word-parallel.
	arrayMaxLen = 4096
	// bitmapWords is the fixed word count of a bitmap container (65536 bits).
	bitmapWords = 1 << 10
)

// container holds the low 16 bits of the values sharing one high key.
// Exactly one of array / bitmap is non-nil.
type container struct {
	array  []uint16 // sorted ascending, unique
	bitmap []uint64 // len == bitmapWords
	n      int      // cardinality (== len(array) for array containers)
}

func newArrayContainer(lows []uint16) *container {
	a := make([]uint16, len(lows))
	copy(a, lows)
	return &container{array: a, n: len(a)}
}

func newBitmapContainer() *container {
	return &container{bitmap: make([]uint64, bitmapWords)}
}

func (c *container) clone() *container {
	out := &container{n: c.n}
	if c.bitmap != nil {
		out.bitmap = make([]uint64, bitmapWords)
		copy(out.bitmap, c.bitmap)
	} else {
		out.array = make([]uint16, len(c.array))
		copy(out.array, c.array)
	}
	return out
}

// searchU16 returns the first index i with a[i] >= v.
func searchU16(a []uint16, v uint16) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (c *container) contains(v uint16) bool {
	if c.bitmap != nil {
		return c.bitmap[v>>6]&(1<<(v&63)) != 0
	}
	i := searchU16(c.array, v)
	return i < len(c.array) && c.array[i] == v
}

func (c *container) toBitmap() {
	bm := make([]uint64, bitmapWords)
	for _, v := range c.array {
		bm[v>>6] |= 1 << (v & 63)
	}
	c.bitmap = bm
	c.array = nil
}

// toArrayIfSparse converts a bitmap container back to an array when its
// cardinality no longer justifies the fixed 8 KiB footprint.
func (c *container) toArrayIfSparse() {
	if c.bitmap == nil || c.n > arrayMaxLen/2 {
		return
	}
	c.toArray()
}

func (c *container) toArray() {
	a := make([]uint16, 0, c.n)
	for w, word := range c.bitmap {
		for word != 0 {
			a = append(a, uint16(w<<6|bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	c.array = a
	c.bitmap = nil
}

func (c *container) add(v uint16) bool {
	if c.bitmap != nil {
		w, b := v>>6, uint64(1)<<(v&63)
		if c.bitmap[w]&b != 0 {
			return false
		}
		c.bitmap[w] |= b
		c.n++
		return true
	}
	i := searchU16(c.array, v)
	if i < len(c.array) && c.array[i] == v {
		return false
	}
	if len(c.array) >= arrayMaxLen {
		c.toBitmap()
		return c.add(v)
	}
	c.array = append(c.array, 0)
	copy(c.array[i+1:], c.array[i:])
	c.array[i] = v
	c.n++
	return true
}

func (c *container) remove(v uint16) bool {
	if c.bitmap != nil {
		w, b := v>>6, uint64(1)<<(v&63)
		if c.bitmap[w]&b == 0 {
			return false
		}
		c.bitmap[w] &^= b
		c.n--
		c.toArrayIfSparse()
		return true
	}
	i := searchU16(c.array, v)
	if i >= len(c.array) || c.array[i] != v {
		return false
	}
	copy(c.array[i:], c.array[i+1:])
	c.array = c.array[:len(c.array)-1]
	c.n--
	return true
}

// forEach invokes fn for every value (base | low) in ascending order and
// reports whether iteration ran to completion.
func (c *container) forEach(base int64, fn func(int64) bool) bool {
	if c.bitmap != nil {
		for w, word := range c.bitmap {
			for word != 0 {
				if !fn(base | int64(w<<6|bits.TrailingZeros64(word))) {
					return false
				}
				word &= word - 1
			}
		}
		return true
	}
	for _, v := range c.array {
		if !fn(base | int64(v)) {
			return false
		}
	}
	return true
}

func andLenContainers(a, b *container) int {
	switch {
	case a.bitmap != nil && b.bitmap != nil:
		n := 0
		for i := range a.bitmap {
			n += bits.OnesCount64(a.bitmap[i] & b.bitmap[i])
		}
		return n
	case a.bitmap == nil && b.bitmap == nil:
		n, i, j := 0, 0, 0
		for i < len(a.array) && j < len(b.array) {
			switch {
			case a.array[i] < b.array[j]:
				i++
			case a.array[i] > b.array[j]:
				j++
			default:
				n++
				i++
				j++
			}
		}
		return n
	default:
		arr, bm := a, b
		if arr.bitmap != nil {
			arr, bm = b, a
		}
		n := 0
		for _, v := range arr.array {
			if bm.bitmap[v>>6]&(1<<(v&63)) != 0 {
				n++
			}
		}
		return n
	}
}

// andContainers returns a ∩ b, or nil when the intersection is empty.
func andContainers(a, b *container) *container {
	switch {
	case a.bitmap != nil && b.bitmap != nil:
		out := newBitmapContainer()
		n := 0
		for i := range a.bitmap {
			w := a.bitmap[i] & b.bitmap[i]
			out.bitmap[i] = w
			n += bits.OnesCount64(w)
		}
		if n == 0 {
			return nil
		}
		out.n = n
		out.toArrayIfSparse()
		return out
	case a.bitmap == nil && b.bitmap == nil:
		var lows []uint16
		i, j := 0, 0
		for i < len(a.array) && j < len(b.array) {
			switch {
			case a.array[i] < b.array[j]:
				i++
			case a.array[i] > b.array[j]:
				j++
			default:
				lows = append(lows, a.array[i])
				i++
				j++
			}
		}
		if len(lows) == 0 {
			return nil
		}
		return &container{array: lows, n: len(lows)}
	default:
		arr, bm := a, b
		if arr.bitmap != nil {
			arr, bm = b, a
		}
		var lows []uint16
		for _, v := range arr.array {
			if bm.bitmap[v>>6]&(1<<(v&63)) != 0 {
				lows = append(lows, v)
			}
		}
		if len(lows) == 0 {
			return nil
		}
		return &container{array: lows, n: len(lows)}
	}
}

// orInPlace merges o into c (c is mutated; o is not).
func (c *container) orInPlace(o *container) {
	switch {
	case c.bitmap != nil && o.bitmap != nil:
		n := 0
		for i := range c.bitmap {
			c.bitmap[i] |= o.bitmap[i]
			n += bits.OnesCount64(c.bitmap[i])
		}
		c.n = n
	case c.bitmap != nil:
		for _, v := range o.array {
			w, b := v>>6, uint64(1)<<(v&63)
			if c.bitmap[w]&b == 0 {
				c.bitmap[w] |= b
				c.n++
			}
		}
	case o.bitmap != nil:
		bm := make([]uint64, bitmapWords)
		copy(bm, o.bitmap)
		n := o.n
		for _, v := range c.array {
			w, b := v>>6, uint64(1)<<(v&63)
			if bm[w]&b == 0 {
				bm[w] |= b
				n++
			}
		}
		c.bitmap, c.array, c.n = bm, nil, n
	default:
		n := c.n + o.n - andLenContainers(c, o)
		switch {
		case n == c.n: // o adds nothing
		case n > arrayMaxLen:
			c.toBitmap()
			c.orInPlace(o)
		default:
			// Merged from the back, in place when c's array has room: it
			// grows by half when it has none, so a set taking in one array
			// after another reallocates O(log n) times, not once per union.
			a := c.array
			if cap(a) < n {
				a = make([]uint16, len(c.array), min(n+n/2, arrayMaxLen))
				copy(a, c.array)
			}
			a = a[:n]
			i, j := len(c.array)-1, len(o.array)-1
			for k := n - 1; j >= 0; k-- {
				switch {
				case i >= 0 && a[i] > o.array[j]:
					a[k] = a[i]
					i--
				case i >= 0 && a[i] == o.array[j]:
					a[k] = a[i]
					i--
					j--
				default:
					a[k] = o.array[j]
					j--
				}
			}
			c.array, c.n = a, n
		}
	}
}

// andNotContainers returns a \ b, or nil when the difference is empty.
func andNotContainers(a, b *container) *container {
	switch {
	case a.bitmap != nil && b.bitmap != nil:
		out := newBitmapContainer()
		n := 0
		for i := range a.bitmap {
			w := a.bitmap[i] &^ b.bitmap[i]
			out.bitmap[i] = w
			n += bits.OnesCount64(w)
		}
		if n == 0 {
			return nil
		}
		out.n = n
		out.toArrayIfSparse()
		return out
	case a.bitmap == nil:
		var lows []uint16
		if b.bitmap != nil { // a bitmap answers each lookup in O(1)
			for _, v := range a.array {
				if !b.contains(v) {
					lows = append(lows, v)
				}
			}
		} else {
			j := 0 // walk b alongside a: both are sorted
			for _, v := range a.array {
				for j < len(b.array) && b.array[j] < v {
					j++
				}
				if j == len(b.array) || b.array[j] != v {
					lows = append(lows, v)
				}
			}
		}
		if len(lows) == 0 {
			return nil
		}
		return &container{array: lows, n: len(lows)}
	default: // a bitmap, b array
		out := a.clone()
		for _, v := range b.array {
			w, bit := v>>6, uint64(1)<<(v&63)
			if out.bitmap[w]&bit != 0 {
				out.bitmap[w] &^= bit
				out.n--
			}
		}
		if out.n == 0 {
			return nil
		}
		out.toArrayIfSparse()
		return out
	}
}

// Set is a compressed, sorted set of int64 values. The zero value is not
// usable; construct sets with New, FromSlice, or FromSorted.
type Set struct {
	keys []int64      // sorted high keys (value >> 16)
	cs   []*container // parallel to keys
	n    int64        // total cardinality
}

// New returns an empty set.
func New() *Set { return &Set{} }

// FromSlice builds a set from values in any order (duplicates are fine).
// The input slice is not modified.
func FromSlice(vals []int64) *Set {
	sorted := make([]int64, len(vals))
	copy(sorted, vals)
	slices.Sort(sorted)
	return FromSorted(sorted)
}

// FromSorted builds a set from values sorted ascending (duplicates are
// skipped). This is the fast bulk-construction path: the values sharing a high
// key are one run of the input, so each container is sized from its run and
// filled in one pass — an exact array, or the bitmap directly when the run is
// dense — with no per-value search and nothing allocated that the set does
// not keep. It takes any int64-based id type, so a typed id list needs no copy
// into []int64 first.
func FromSorted[T ~int64](vals []T) *Set {
	s := New()
	for lo := 0; lo < len(vals); {
		key := int64(vals[lo]) >> 16
		hi := lo + 1
		for hi < len(vals) && int64(vals[hi])>>16 == key {
			hi++
		}
		c := &container{}
		if hi-lo > arrayMaxLen { // an upper bound of the run's cardinality
			c = newBitmapContainer()
			for _, v := range vals[lo:hi] {
				c.add(uint16(v & 0xFFFF))
			}
			if c.n <= arrayMaxLen { // the run had duplicates
				c.toArray()
			}
		} else {
			c.array = make([]uint16, 0, hi-lo)
			for i, v := range vals[lo:hi] {
				if i == 0 || v != vals[lo+i-1] {
					c.array = append(c.array, uint16(v&0xFFFF))
				}
			}
			c.n = len(c.array)
		}
		s.keys = append(s.keys, key)
		s.cs = append(s.cs, c)
		s.n += int64(c.n)
		lo = hi
	}
	return s
}

// findKey returns the index of key in s.keys, or (insertion index, false).
func (s *Set) findKey(key int64) (int, bool) {
	lo, hi := 0, len(s.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.keys) && s.keys[lo] == key
}

// Len returns the cardinality.
func (s *Set) Len() int64 {
	if s == nil {
		return 0
	}
	return s.n
}

// IsEmpty reports whether the set has no elements.
func (s *Set) IsEmpty() bool { return s.Len() == 0 }

// Contains reports membership.
func (s *Set) Contains(v int64) bool {
	if s == nil {
		return false
	}
	i, ok := s.findKey(v >> 16)
	return ok && s.cs[i].contains(uint16(v&0xFFFF))
}

// Add inserts v, reporting whether the set changed.
func (s *Set) Add(v int64) bool {
	key := v >> 16
	i, ok := s.findKey(key)
	if !ok {
		c := &container{array: []uint16{uint16(v & 0xFFFF)}, n: 1}
		s.keys = append(s.keys, 0)
		s.cs = append(s.cs, nil)
		copy(s.keys[i+1:], s.keys[i:])
		copy(s.cs[i+1:], s.cs[i:])
		s.keys[i], s.cs[i] = key, c
		s.n++
		return true
	}
	if s.cs[i].add(uint16(v & 0xFFFF)) {
		s.n++
		return true
	}
	return false
}

// Remove deletes v, reporting whether the set changed.
func (s *Set) Remove(v int64) bool {
	i, ok := s.findKey(v >> 16)
	if !ok || !s.cs[i].remove(uint16(v&0xFFFF)) {
		return false
	}
	s.n--
	if s.cs[i].n == 0 {
		s.keys = append(s.keys[:i], s.keys[i+1:]...)
		s.cs = append(s.cs[:i], s.cs[i+1:]...)
	}
	return true
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	if s == nil {
		return New()
	}
	out := &Set{
		keys: append([]int64(nil), s.keys...),
		cs:   make([]*container, len(s.cs)),
		n:    s.n,
	}
	for i, c := range s.cs {
		out.cs[i] = c.clone()
	}
	return out
}

// ForEach invokes fn for every element in ascending order; iteration stops
// early when fn returns false.
func (s *Set) ForEach(fn func(int64) bool) {
	if s == nil {
		return
	}
	for i, key := range s.keys {
		if !s.cs[i].forEach(key<<16, fn) {
			return
		}
	}
}

// Containers calls fn for every container in ascending order with its base
// (its high key shifted into place) and either its sorted low parts or its
// bitmap words, for a caller that walks a set without a call per element. fn
// must not modify them; iteration stops early when it returns false.
func (s *Set) Containers(fn func(base int64, lows []uint16, bitmap []uint64) bool) {
	if s == nil {
		return
	}
	for i, key := range s.keys {
		if !fn(key<<16, s.cs[i].array, s.cs[i].bitmap) {
			return
		}
	}
}

// Min returns the smallest element; ok is false for an empty set.
func (s *Set) Min() (v int64, ok bool) {
	s.ForEach(func(x int64) bool { v, ok = x, true; return false })
	return v, ok
}

// Max returns the largest element; ok is false for an empty set.
func (s *Set) Max() (v int64, ok bool) {
	if s == nil {
		return 0, false
	}
	for i := len(s.keys) - 1; i >= 0; i-- { // a decoded set may carry empty containers
		c := s.cs[i]
		if c.bitmap == nil {
			if len(c.array) > 0 {
				return s.keys[i]<<16 | int64(c.array[len(c.array)-1]), true
			}
			continue
		}
		for w := len(c.bitmap) - 1; w >= 0; w-- {
			if word := c.bitmap[w]; word != 0 {
				return s.keys[i]<<16 | int64(w<<6|(63-bits.LeadingZeros64(word))), true
			}
		}
	}
	return 0, false
}

// AppendTo appends the elements in ascending order to dst and returns it.
func (s *Set) AppendTo(dst []int64) []int64 {
	s.ForEach(func(v int64) bool {
		dst = append(dst, v)
		return true
	})
	return dst
}

// Slice materializes the elements as a fresh ascending slice.
func (s *Set) Slice() []int64 {
	return s.AppendTo(make([]int64, 0, s.Len()))
}

// UnionWith merges o into s in place (s grows; o is unchanged). Containers
// copied from o are cloned, so later mutation of s never aliases o.
func (s *Set) UnionWith(o *Set) {
	if o == nil || o.n == 0 {
		return
	}
	keys := make([]int64, 0, len(s.keys)+len(o.keys))
	cs := make([]*container, 0, len(s.cs)+len(o.cs))
	i, j := 0, 0
	var n int64
	for i < len(s.keys) && j < len(o.keys) {
		switch {
		case s.keys[i] < o.keys[j]:
			keys, cs = append(keys, s.keys[i]), append(cs, s.cs[i])
			n += int64(s.cs[i].n)
			i++
		case s.keys[i] > o.keys[j]:
			keys, cs = append(keys, o.keys[j]), append(cs, o.cs[j].clone())
			n += int64(o.cs[j].n)
			j++
		default:
			c := s.cs[i]
			c.orInPlace(o.cs[j])
			keys, cs = append(keys, s.keys[i]), append(cs, c)
			n += int64(c.n)
			i++
			j++
		}
	}
	for ; i < len(s.keys); i++ {
		keys, cs = append(keys, s.keys[i]), append(cs, s.cs[i])
		n += int64(s.cs[i].n)
	}
	for ; j < len(o.keys); j++ {
		keys, cs = append(keys, o.keys[j]), append(cs, o.cs[j].clone())
		n += int64(o.cs[j].n)
	}
	s.keys, s.cs, s.n = keys, cs, n
}

// Or returns a ∪ b as a new set.
func Or(a, b *Set) *Set {
	out := a.Clone()
	out.UnionWith(b)
	return out
}

// And returns a ∩ b as a new set.
func And(a, b *Set) *Set {
	out := New()
	if a == nil || b == nil {
		return out
	}
	i, j := 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		switch {
		case a.keys[i] < b.keys[j]:
			i++
		case a.keys[i] > b.keys[j]:
			j++
		default:
			if c := andContainers(a.cs[i], b.cs[j]); c != nil {
				out.keys = append(out.keys, a.keys[i])
				out.cs = append(out.cs, c)
				out.n += int64(c.n)
			}
			i++
			j++
		}
	}
	return out
}

// AndNot returns a \ b as a new set.
func AndNot(a, b *Set) *Set {
	out := New()
	if a == nil {
		return out
	}
	if b == nil {
		return a.Clone()
	}
	i, j := 0, 0
	for i < len(a.keys) {
		for j < len(b.keys) && b.keys[j] < a.keys[i] {
			j++
		}
		var c *container
		if j < len(b.keys) && b.keys[j] == a.keys[i] {
			c = andNotContainers(a.cs[i], b.cs[j])
		} else {
			c = a.cs[i].clone()
		}
		if c != nil {
			out.keys = append(out.keys, a.keys[i])
			out.cs = append(out.cs, c)
			out.n += int64(c.n)
		}
		i++
	}
	return out
}

// AndLen returns |a ∩ b| without materializing the intersection.
func AndLen(a, b *Set) int64 {
	if a == nil || b == nil {
		return 0
	}
	var n int64
	i, j := 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		switch {
		case a.keys[i] < b.keys[j]:
			i++
		case a.keys[i] > b.keys[j]:
			j++
		default:
			n += int64(andLenContainers(a.cs[i], b.cs[j]))
			i++
			j++
		}
	}
	return n
}

// OrLen returns |a ∪ b| without materializing the union.
func OrLen(a, b *Set) int64 {
	return a.Len() + b.Len() - AndLen(a, b)
}

// Equal reports whether the two sets hold exactly the same elements.
func Equal(a, b *Set) bool {
	if a.Len() != b.Len() {
		return false
	}
	return AndLen(a, b) == a.Len()
}
