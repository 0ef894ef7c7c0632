package vgraph

import (
	"fmt"
	"sort"
)

// Tree is a version tree: every version has at most one parent. It is the
// structure LyreSplit operates on. Trees are obtained either directly (SCI
// style workloads without merges) or by ToTree, which removes all but the
// heaviest incoming edge of every merged version (Section 5.3.1).
type Tree struct {
	// Root is the root version (the initial commit).
	Root VersionID
	// Parent maps each non-root version to its (single) parent.
	Parent map[VersionID]VersionID
	// Children maps each version to its children, sorted by id.
	Children map[VersionID][]VersionID
	// Weight maps each non-root version to the number of records shared
	// with its parent, w(v, p(v)).
	Weight map[VersionID]int64
	// Records maps each version to |R(v)|.
	Records map[VersionID]int64
	// Attrs and CommonAttrs carry schema sizes for the schema-change-aware
	// partitioner; they may be zero-valued when the schema is fixed.
	Attrs       map[VersionID]int
	CommonAttrs map[VersionID]int
	// DuplicatedRecords is |R̂|: the number of records that are conceptually
	// duplicated when merge edges are dropped (zero for true trees).
	DuplicatedRecords int64
}

// ToTree converts a version graph (possibly a DAG with merges) into a
// version tree by keeping, for every version with multiple parents, only the
// incoming edge with the largest weight. It returns the tree and the number
// of conceptually duplicated records |R̂| (Section 5.3.1): for each dropped
// edge, the records the child shared with that dropped parent but not with
// the kept parent are counted as new records.
func ToTree(g *Graph) (*Tree, error) {
	roots := g.Roots()
	if len(roots) == 0 {
		return nil, fmt.Errorf("vgraph: graph has no root version")
	}
	if len(roots) > 1 {
		return nil, fmt.Errorf("vgraph: graph has %d roots; a CVD has exactly one initial version", len(roots))
	}
	t := &Tree{
		Root:        roots[0],
		Parent:      make(map[VersionID]VersionID),
		Children:    make(map[VersionID][]VersionID),
		Weight:      make(map[VersionID]int64),
		Records:     make(map[VersionID]int64),
		Attrs:       make(map[VersionID]int),
		CommonAttrs: make(map[VersionID]int),
	}
	for _, id := range g.Versions() {
		n := g.Node(id)
		t.Records[id] = n.NumRecords
		t.Attrs[id] = n.NumAttrs
		if len(n.Parents) == 0 {
			continue
		}
		// Keep the incoming edge with the highest weight; ties go to the
		// smaller parent id for determinism.
		best := n.Parents[0]
		bestEdge := g.Edge(best, id)
		for _, p := range n.Parents[1:] {
			e := g.Edge(p, id)
			if e == nil {
				continue
			}
			if e.Weight > bestEdge.Weight || (e.Weight == bestEdge.Weight && p < best) {
				best, bestEdge = p, e
			}
		}
		t.Parent[id] = best
		t.Weight[id] = bestEdge.Weight
		t.CommonAttrs[id] = bestEdge.CommonAttrs
		t.Children[best] = append(t.Children[best], id)
		// Every record shared only through a dropped parent is conceptually
		// re-created in the tree view; we approximate |R̂| per the paper as
		// |R(v)| - w(kept edge) minus genuinely new records, i.e. the extra
		// inherited records attributed to dropped parents, bounded below by 0.
		if len(n.Parents) > 1 {
			var maxDropped int64
			for _, p := range n.Parents {
				if p == best {
					continue
				}
				if e := g.Edge(p, id); e != nil && e.Weight > maxDropped {
					maxDropped = e.Weight
				}
			}
			dup := maxDropped - bestEdge.Weight
			if dup < 0 {
				// The kept edge already covers at least as many records as any
				// dropped edge individually; conservatively count the records
				// the dropped parents contributed beyond the kept parent as 0.
				dup = 0
			}
			t.DuplicatedRecords += dup
		}
	}
	for id := range t.Children {
		c := t.Children[id]
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	}
	return t, nil
}

// NumVersions returns the number of versions in the tree.
func (t *Tree) NumVersions() int { return len(t.Records) }

// TotalBipartiteEdges returns |E| = Σ|R(v)|.
func (t *Tree) TotalBipartiteEdges() int64 {
	var total int64
	for _, r := range t.Records {
		total += r
	}
	return total
}

// DistinctRecords returns the tree-model estimate of |R|: the root's records
// plus, for every other version, the records not shared with its parent.
// For graphs converted from DAGs this counts duplicated records separately
// (i.e. it returns |R| + |R̂|).
func (t *Tree) DistinctRecords() int64 {
	total := t.Records[t.Root]
	for id, p := range t.Parent {
		_ = p
		total += t.Records[id] - t.Weight[id]
	}
	return total
}

// SubtreeVersions returns all versions in the subtree rooted at v (including
// v), in DFS order.
func (t *Tree) SubtreeVersions(v VersionID) []VersionID {
	var out []VersionID
	stack := []VersionID{v}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, cur)
		children := t.Children[cur]
		for i := len(children) - 1; i >= 0; i-- {
			stack = append(stack, children[i])
		}
	}
	return out
}

// Depth returns the number of edges on the path from the root to v; the
// root has depth 0. Unknown versions return -1.
func (t *Tree) Depth(v VersionID) int {
	if _, ok := t.Records[v]; !ok {
		return -1
	}
	d := 0
	for v != t.Root {
		p, ok := t.Parent[v]
		if !ok {
			return -1
		}
		v = p
		d++
	}
	return d
}

// Validate checks structural invariants: single root, acyclic parent chain,
// weights not exceeding either endpoint's record count. Connectivity is
// checked with a memoized walk — each version's parent chain is followed
// only until it reaches a node already known connected — so validation is
// amortized O(n) even on chain-shaped histories (it is called on every
// LyreSplit entry point) and terminates with an error on parent cycles.
func (t *Tree) Validate() error {
	for v := range t.Records {
		if v == t.Root {
			continue
		}
		if _, ok := t.Parent[v]; !ok {
			return fmt.Errorf("vgraph: version %d has no parent and is not the root", v)
		}
	}
	connected := make(map[VersionID]bool, len(t.Records))
	connected[t.Root] = true
	var path []VersionID
	for v, p := range t.Parent {
		if _, ok := t.Records[v]; !ok {
			return fmt.Errorf("vgraph: version %d is not connected to the root", v)
		}
		path = path[:0]
		cur := v
		for !connected[cur] {
			next, ok := t.Parent[cur]
			if !ok {
				return fmt.Errorf("vgraph: version %d is not connected to the root", v)
			}
			path = append(path, cur)
			if len(path) > len(t.Records) {
				return fmt.Errorf("vgraph: version %d's parent chain contains a cycle", v)
			}
			cur = next
		}
		for _, u := range path {
			connected[u] = true
		}
		w := t.Weight[v]
		if w > t.Records[v] || w > t.Records[p] {
			return fmt.Errorf("vgraph: edge %d->%d weight %d exceeds endpoint size (%d, %d)", p, v, w, t.Records[p], t.Records[v])
		}
	}
	return nil
}

// ExpandWeighted builds the frequency-expanded tree T' of Section 5.3.2:
// each version v with checkout frequency f(v) ≥ 1 is replaced by a chain of
// f(v) replicas; the chain head attaches where v attached. It returns the
// expanded tree and a mapping from replica id to original id. Frequencies
// missing from freq default to 1; frequencies below 1 are treated as 1.
//
// Replica ids are synthetic and only meaningful within the returned tree.
func (t *Tree) ExpandWeighted(freq map[VersionID]int) (*Tree, map[VersionID]VersionID) {
	out := &Tree{
		Parent:      make(map[VersionID]VersionID),
		Children:    make(map[VersionID][]VersionID),
		Weight:      make(map[VersionID]int64),
		Records:     make(map[VersionID]int64),
		Attrs:       make(map[VersionID]int),
		CommonAttrs: make(map[VersionID]int),
	}
	origOf := make(map[VersionID]VersionID)
	head := make(map[VersionID]VersionID) // original -> first replica
	tail := make(map[VersionID]VersionID) // original -> last replica
	next := VersionID(1)

	// Deterministic order: BFS from root.
	order := t.SubtreeVersions(t.Root)
	for _, v := range order {
		f := freq[v]
		if f < 1 {
			f = 1
		}
		var prev VersionID
		for i := 0; i < f; i++ {
			id := next
			next++
			origOf[id] = v
			out.Records[id] = t.Records[v]
			out.Attrs[id] = t.Attrs[v]
			if i == 0 {
				head[v] = id
			} else {
				out.Parent[id] = prev
				out.Weight[id] = t.Records[v] // a replica shares everything with its predecessor
				out.Children[prev] = append(out.Children[prev], id)
			}
			prev = id
		}
		tail[v] = prev
	}
	// Connect chain heads following the original tree edges: the head of v
	// attaches to the tail of parent(v).
	for _, v := range order {
		if v == t.Root {
			out.Root = head[v]
			continue
		}
		p := t.Parent[v]
		out.Parent[head[v]] = tail[p]
		out.Weight[head[v]] = t.Weight[v]
		out.CommonAttrs[head[v]] = t.CommonAttrs[v]
		out.Children[tail[p]] = append(out.Children[tail[p]], head[v])
	}
	return out, origOf
}
