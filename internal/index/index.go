// Package index implements the GKS Indexing Engine (Agarwal et al.,
// EDBT 2016, §2.2 and §2.4): the per-instance XML node categorization model
// (Attribute / Repeating / Entity / Connecting nodes, Defs 2.1.1–2.1.4), the
// inverted index over text and element-name keywords, and the entity/element
// hash tables with direct-child counts that the search and ranking engines
// consume.
//
// The index is built in a single pass over each document's pre-order
// arrival (build.go), from a parsed tree or straight from the XML tokens.
// Element nodes are stored in pre-order, which equals Dewey (document)
// order, so the subtree of a node occupies a contiguous ordinal range — the
// invariant the GKS search algorithm exploits. The node table every index
// serves from is the column table of packed.go, one row per ordinal, which
// the builder writes as it reads.
package index

import (
	"fmt"
	"sort"

	"repro/internal/dewey"
	"repro/internal/textproc"
)

// Category is a bit set of node categories per §2.2. A node can carry more
// than one category: for example the <Course> nodes of Figure 2(a) are both
// entity nodes and repeating nodes within <Area>.
type Category uint8

const (
	// Attribute marks an attribute node (Def 2.1.1): an element whose only
	// child is its value and that has no same-label sibling.
	Attribute Category = 1 << iota
	// Repeating marks a repeating node (Def 2.1.2): an element with at
	// least one same-label sibling.
	Repeating
	// Entity marks an entity node (Def 2.1.3): the lowest common ancestor
	// of a group of repeating nodes and at least one attribute node not
	// contained in any repeating node.
	Entity
	// Connecting marks a connecting node (Def 2.1.4): none of the above.
	Connecting
)

// String renders the category set, e.g. "EN|RN".
func (c Category) String() string {
	names := []struct {
		bit  Category
		name string
	}{{Attribute, "AN"}, {Repeating, "RN"}, {Entity, "EN"}, {Connecting, "CN"}}
	s := ""
	for _, n := range names {
		if c&n.bit != 0 {
			if s != "" {
				s += "|"
			}
			s += n.name
		}
	}
	if s == "" {
		return "none"
	}
	return s
}

// Index is the complete GKS index for one repository.
type Index struct {
	// Labels is the interned element-label table.
	Labels []string
	// Postings maps a normalized keyword to the sorted ordinals of the
	// element nodes that directly contain it (text keywords) or carry it
	// as their tag (element-name keywords).
	Postings map[string][]int32
	// DocNames records the name of each indexed document, by document id.
	DocNames []string
	// Stats summarizes the build (Tables 4 and 5 of the paper); on a
	// tombstoned index it reflects only the live documents.
	Stats Stats

	labelIDs map[string]int32

	// tomb is the delete mask of a mutated index, nil on a freshly built
	// or compacted one. It is never persisted: save paths compact first.
	// See mutate.go.
	tomb *tombstones

	// lazy, when non-nil, serves posting lists from a PostingSource (a
	// GKS4 segment) instead of the Postings map, which stays nil. Never
	// set together with tomb: mutations materialize first. See lazy.go.
	lazy *lazyState

	// cols is the resident node table: one row per element node in
	// pre-order (Dewey order), read through the accessor methods below.
	// See packed.go.
	cols *nodeColumns
}

// Stats aggregates the counters reported in the paper's §7.1–7.2.
type Stats struct {
	Documents        int
	ElementNodes     int
	TextNodes        int
	AttributeNodes   int
	RepeatingNodes   int
	EntityNodes      int
	ConnectingNodes  int
	DistinctKeywords int
	PostingEntries   int
	MaxDepth         int
}

// Options configures Build.
type Options struct {
	// IndexElementNames controls whether element tags are added to the
	// inverted index as keywords. The paper's Example 3 queries element
	// names ("student"), so this defaults to on.
	IndexElementNames bool
	// Hint pre-sizes the builder's structures. Zero fields mean unknown:
	// the node count is then counted, the rest grow on demand. Hints
	// affect only allocation, never the built index: a misestimate costs
	// memory or reallocation, not correctness. shard.Build supplies hints from the partition's
	// node counts and from already-built shards' observed stats.
	Hint SizeHint
}

// SizeHint carries expected sizes for Build's backing structures.
type SizeHint struct {
	// Nodes is the expected element-node count: the capacity of each
	// column of the node table the builder writes, so no column re-grows.
	// Zero counts the repository's elements instead.
	Nodes int
	// Terms is the expected number of distinct keywords (initial size of
	// the postings map).
	Terms int
	// Postings is the expected total posting count; Postings/Terms seeds
	// the capacity of each new posting list.
	Postings int
}

// DefaultOptions returns the configuration used by the paper's system.
func DefaultOptions() Options { return Options{IndexElementNames: true} }

// refreshCategoryStats recomputes the category counters after a
// re-categorization. Only live nodes are counted, so a tombstoned index
// reports the statistics of its surviving documents.
func (ix *Index) refreshCategoryStats() {
	s := &ix.Stats
	s.AttributeNodes, s.RepeatingNodes, s.EntityNodes, s.ConnectingNodes = 0, 0, 0, 0
	for _, sp := range ix.LiveSpans() {
		for ord := sp[0]; ord < sp[1]; ord++ {
			s.addCategory(ix.CatOf(ord))
		}
	}
}

// addNodes adds sign times the node tallies of d — documents, element,
// text and category counts — to s. Keyword counts and MaxDepth do not sum
// across documents, so the caller settles those.
func (s *Stats) addNodes(d Stats, sign int) {
	s.Documents += sign * d.Documents
	s.ElementNodes += sign * d.ElementNodes
	s.TextNodes += sign * d.TextNodes
	s.AttributeNodes += sign * d.AttributeNodes
	s.RepeatingNodes += sign * d.RepeatingNodes
	s.EntityNodes += sign * d.EntityNodes
	s.ConnectingNodes += sign * d.ConnectingNodes
}

// addCategory counts one node of category c.
func (s *Stats) addCategory(c Category) {
	if c&Attribute != 0 {
		s.AttributeNodes++
	}
	if c&Repeating != 0 {
		s.RepeatingNodes++
	}
	if c&Entity != 0 {
		s.EntityNodes++
	}
	if c&Connecting != 0 {
		s.ConnectingNodes++
	}
}

// Lookup returns the live posting list for a raw keyword after
// normalization (lower-case + stem), or nil if absent. The returned slice
// must not be modified.
func (ix *Index) Lookup(raw string) []int32 {
	key := textproc.NormalizeKeyword(raw)
	if key == "" {
		return nil
	}
	return ix.PostingsFor(key)
}

// LabelOf returns the element label of the node at ord.
func (ix *Index) LabelOf(ord int32) string { return ix.Labels[ix.LabelIDOf(ord)] }

// LabelIDOf returns the interned label id (index into Labels) of the node
// at ord.
func (ix *Index) LabelIDOf(ord int32) int32 { return ix.cols.label[ord] }

// CatOf returns the category bit set of the node at ord.
func (ix *Index) CatOf(ord int32) Category { return Category(ix.cols.cat[ord]) }

// ChildCountOf returns the direct child count (elements and text nodes) of
// the node at ord.
func (ix *Index) ChildCountOf(ord int32) int32 { return ix.cols.child[ord] }

// SubtreeSizeOf returns the element count of the subtree rooted at ord,
// including ord itself.
func (ix *Index) SubtreeSizeOf(ord int32) int32 { return ix.cols.subtree[ord] }

// DepthOf returns the Dewey depth of the node at ord (document roots are
// depth 0).
func (ix *Index) DepthOf(ord int32) int32 { return ix.cols.depth[ord] }

// HasValueAt reports whether the node at ord directly contains text.
func (ix *Index) HasValueAt(ord int32) bool { return ix.cols.val[ord] >= 0 }

// ValueAt returns the concatenated direct text of the node at ord ("" when
// HasValueAt is false).
func (ix *Index) ValueAt(ord int32) string {
	if v := ix.cols.val[ord]; v >= 0 {
		return ix.cols.value(v)
	}
	return ""
}

// IDOf returns the Dewey identifier of the node at ord. The path is
// materialized by a parent-chain walk (lazy expansion); result formatting
// is the only hot caller, so the allocation stays off the query's
// merge/window path.
func (ix *Index) IDOf(ord int32) dewey.ID { return ix.cols.idOf(ord) }

// DocOf returns the Dewey document number of the node at ord.
func (ix *Index) DocOf(ord int32) int32 { return ix.cols.docOf(ord) }

// IsEntity mirrors the paper's isEntity(DeweyId) helper: it returns the
// number of direct children when the node is an entity node, and 0
// otherwise.
func (ix *Index) IsEntity(ord int32) int32 {
	if ix.CatOf(ord)&Entity != 0 {
		return ix.ChildCountOf(ord)
	}
	return 0
}

// IsElement mirrors the paper's isElement(DeweyId) helper for repeating and
// connecting nodes.
func (ix *Index) IsElement(ord int32) int32 {
	if ix.CatOf(ord)&(Repeating|Connecting) != 0 {
		return ix.ChildCountOf(ord)
	}
	return 0
}

// OrdinalOf locates the element with the given Dewey ID by binary search
// over the pre-order node table. Tombstoned nodes are not found.
func (ix *Index) OrdinalOf(id dewey.ID) (int32, bool) {
	c := ix.cols
	n := len(c.label)
	i := sort.Search(n, func(i int) bool { return c.compareID(int32(i), id) >= 0 })
	if i < n && c.compareID(int32(i), id) == 0 && ix.LiveOrd(int32(i)) {
		return int32(i), true
	}
	return 0, false
}

// SubtreeRange returns the half-open ordinal range [start, end) of the
// subtree rooted at ord.
func (ix *Index) SubtreeRange(ord int32) (start, end int32) {
	return ord, ord + ix.SubtreeSizeOf(ord)
}

// ContainsOrd reports whether desc lies in the subtree of anc (or is anc).
func (ix *Index) ContainsOrd(anc, desc int32) bool {
	return desc >= anc && desc < anc+ix.SubtreeSizeOf(anc)
}

// LowestEntityAncestorOrSelf returns the ordinal of the nearest entity node
// on the path from ord to its document root, including ord itself, and
// whether one exists. This is the lifting step of the GKS search algorithm
// (§4.1: "we check if it is an entity node or any of its ancestors is an
// entity node").
func (ix *Index) LowestEntityAncestorOrSelf(ord int32) (int32, bool) {
	for cur := ord; cur >= 0; cur = ix.ParentOf(cur) {
		if ix.CatOf(cur)&Entity != 0 {
			return cur, true
		}
	}
	return 0, false
}

// ParentOf returns the ordinal of ord's parent element, or -1 at a root.
func (ix *Index) ParentOf(ord int32) int32 { return ix.cols.parent[ord] }

// PathLabels returns the element labels on the path from (and including)
// anc down to (and including) desc. It is used to expose DI semantics —
// "the XML elements on the path from the root of LCE node till the keyword"
// (§1.2). If desc is not in anc's subtree, nil is returned.
func (ix *Index) PathLabels(anc, desc int32) []string {
	if !ix.ContainsOrd(anc, desc) {
		return nil
	}
	var rev []int32
	for cur := desc; cur != anc; cur = ix.ParentOf(cur) {
		rev = append(rev, cur)
	}
	labels := make([]string, 0, len(rev)+1)
	labels = append(labels, ix.LabelOf(anc))
	for i := len(rev) - 1; i >= 0; i-- {
		labels = append(labels, ix.LabelOf(rev[i]))
	}
	return labels
}

// ValueNodesUnder returns the ordinals of the value-carrying nodes in the
// subtree of e whose lowest entity ancestor is e itself — the paper's
// "attribute nodes of the LCE node" used by DI discovery (§6.2). Nested
// entities keep their own attributes.
func (ix *Index) ValueNodesUnder(e int32) []int32 {
	start, end := ix.SubtreeRange(e)
	var out []int32
	for ord := start; ord < end; ord++ {
		if ord != start && ix.CatOf(ord)&Entity != 0 {
			// Skip the whole nested entity subtree.
			ord += ix.SubtreeSizeOf(ord) - 1
			continue
		}
		if ix.HasValueAt(ord) {
			out = append(out, ord)
		}
	}
	return out
}

// Validate checks the structural invariants a healthy index satisfies:
// the node table's columns (labels and value ids in range, a parent
// before its child, subtree ranges nested, a depth its parent's + 1, the
// root table and the record column right) and posting lists strictly
// increasing within bounds. A decoded snapshot that passes the checksum but
// was written by a buggy or hostile producer is caught here before it is
// swapped into a serving system; reload paths call this between load and
// swap.
func (ix *Index) Validate() error {
	if err := ix.validateNodes(); err != nil {
		return fmt.Errorf("index: validate: %w", err)
	}
	nNodes := ix.NodeCount()
	for kw, list := range ix.Postings {
		prev := int32(-1)
		for _, ord := range list {
			if ord <= prev || int(ord) >= nNodes {
				return fmt.Errorf("index: validate: posting list %q: ordinal %d out of order or out of range [0,%d)", kw, ord, nNodes)
			}
			prev = ord
		}
	}
	return nil
}
