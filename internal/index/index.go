// Package index implements the GKS Indexing Engine (Agarwal et al.,
// EDBT 2016, §2.2 and §2.4): the per-instance XML node categorization model
// (Attribute / Repeating / Entity / Connecting nodes, Defs 2.1.1–2.1.4), the
// inverted index over text and element-name keywords, and the entity/element
// hash tables with direct-child counts that the search and ranking engines
// consume.
//
// The index is built in a single pass over a parsed repository. Element
// nodes are stored in pre-order, which equals Dewey (document) order, so the
// subtree of a node occupies a contiguous ordinal range — the invariant the
// GKS search algorithm exploits. The node table every index serves from is
// the DAG-compressed packed table of packed.go; the flat []NodeInfo form
// exists only while a builder fills it.
package index

import (
	"fmt"
	"sort"

	"repro/internal/dewey"
	"repro/internal/textproc"
	"repro/internal/xmltree"
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

// NodeInfo is the per-element record kept by the index. It subsumes the
// paper's entityHash and elementHash (§2.4): both hash tables "store the
// number of direct children each node has", which is exactly ChildCount.
type NodeInfo struct {
	// ID is the node's Dewey identifier.
	ID dewey.ID
	// Label is an index into Index.Labels.
	Label int32
	// Cat is the node's category bit set.
	Cat Category
	// ChildCount is the number of direct children (elements and text
	// nodes); it is the divisor of the potential-flow ranking model (§5).
	ChildCount int32
	// Subtree is the number of element nodes in the subtree rooted here,
	// including the node itself; [ord, ord+Subtree) is the subtree's
	// ordinal range.
	Subtree int32
	// Parent is the ordinal of the parent element, or -1 for a document
	// root.
	Parent int32
	// HasValue reports whether the element directly contains text (the
	// paper's "text node"); such nodes carry postings and feed DI.
	HasValue bool
	// Value is the concatenated direct text content for HasValue nodes.
	Value string
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

	// packed is the DAG-compressed node table: every element node in
	// pre-order (Dewey order), read through the accessor methods below.
	// See packed.go.
	packed *packedNodes

	// nodes is the builders' scratch: the flat pre-order table of an index
	// under construction. pack turns it into packed and drops it, so no
	// index a constructor returns holds it.
	nodes []NodeInfo
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
	// Nodes is the expected element-node count (capacity of the builder's
	// flat node table — NodeInfo is large, so avoiding re-growth of this
	// table is the biggest single saving). Zero counts the repository's
	// elements instead.
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

// Build indexes the repository in one pass.
func Build(repo *xmltree.Repository, opts Options) (*Index, error) {
	return packing(buildFlat(repo, opts))
}

// buildFlat is Build without the final pack: the builders' flat table,
// which the delta append consumes.
func buildFlat(repo *xmltree.Repository, opts Options) (*Index, error) {
	if repo == nil || len(repo.Docs) == 0 {
		return nil, fmt.Errorf("index: empty repository")
	}
	ix := &Index{
		Postings: make(map[string][]int32, opts.Hint.Terms),
		labelIDs: make(map[string]int32),
	}
	nodes := opts.Hint.Nodes
	if nodes <= 0 {
		// Count the rows instead: the flat table is the builder's largest
		// structure, and growing it by doubling copies it and leaves each
		// old copy for the collector to scan.
		for _, doc := range repo.Docs {
			if doc.Root != nil {
				nodes += doc.ElementCount()
			}
		}
	}
	ix.nodes = make([]NodeInfo, 0, nodes)
	b := builder{ix: ix, opts: opts, norm: textproc.NewMemo()}
	if opts.Hint.Terms > 0 && opts.Hint.Postings > opts.Hint.Terms {
		b.listCap = opts.Hint.Postings / opts.Hint.Terms
	}
	for _, doc := range repo.Docs {
		if doc.Root == nil {
			return nil, fmt.Errorf("index: document %q has no root", doc.Name)
		}
		if !doc.Root.IsElement() {
			return nil, fmt.Errorf("index: document %q root is not an element", doc.Name)
		}
		ix.DocNames = append(ix.DocNames, doc.Name)
		b.walk(doc.Root, false, -1, 0)
	}
	ix.finalizeStats()
	return ix, nil
}

// BuildDocument indexes a single document as a one-document repository.
func BuildDocument(doc *xmltree.Document, opts Options) (*Index, error) {
	return Build(&xmltree.Repository{Docs: []*xmltree.Document{doc}}, opts)
}

type builder struct {
	ix   *Index
	opts Options
	norm *textproc.Memo
	// listCap seeds the capacity of new posting lists (average postings
	// per term from Options.Hint), 0 to grow on demand.
	listCap int
}

// walk classifies n, appends its NodeInfo, indexes its keywords and returns
// the attribute/repeating visibility of n's subtree as seen from its parent
// (§2.2): qualAttr is true when the subtree exposes an attribute node not
// hidden inside a repeating node; repVis is true when it exposes a
// repeating-node endpoint.
func (b *builder) walk(n *xmltree.Node, isRep bool, parent int32, depth int) (qualAttr, repVis bool) {
	ix := b.ix
	ord := int32(len(ix.nodes))
	ix.nodes = append(ix.nodes, NodeInfo{
		ID:         n.ID,
		Label:      b.labelID(n.Label),
		ChildCount: int32(len(n.Children)),
		Parent:     parent,
	})
	if depth > ix.Stats.MaxDepth {
		ix.Stats.MaxDepth = depth
	}

	// Inverted-index entries are emitted pre-order so every posting list is
	// automatically sorted in Dewey order (§2.4). The label keyword seeds
	// the value-token dedup: a text value containing the element's own name
	// (an <author> node whose text says "author") must not post the same
	// ordinal twice — posting lists are strictly increasing by invariant,
	// and the codec enforces it.
	var labelKey string
	if b.opts.IndexElementNames {
		if key := b.norm.NormalizeKeyword(n.Label); key != "" {
			b.post(key, ord)
			labelKey = key
		}
	}
	value, hasText := directTextValue(n)
	if hasText {
		ix.Stats.TextNodes += countTextChildren(n)
		seen := map[string]bool{}
		if labelKey != "" {
			seen[labelKey] = true
		}
		for _, tok := range b.norm.Normalize(value) {
			if !seen[tok] {
				seen[tok] = true
				b.post(tok, ord)
			}
		}
	}

	// Count same-label element siblings among n's children to decide which
	// children are repeating (Def 2.1.2).
	labelCount := make(map[string]int, len(n.Children))
	for _, c := range n.Children {
		if c.IsElement() {
			labelCount[c.Label]++
		}
	}

	// Recurse, collecting per-child visibility for the entity test.
	var attrChildren, repChildren, bothChildren int
	for _, c := range n.Children {
		if !c.IsElement() {
			continue
		}
		qa, rv := b.walk(c, labelCount[c.Label] > 1, ord, depth+1)
		switch {
		case qa && rv:
			bothChildren++
		case qa:
			attrChildren++
		case rv:
			repChildren++
		}
	}

	info := &ix.nodes[ord]
	info.Subtree = int32(len(ix.nodes)) - ord
	if hasText {
		info.HasValue = true
		info.Value = value
	}

	// Classify (Defs 2.1.1–2.1.4).
	directValue := n.DirectlyContainsValue()
	var cat Category
	switch {
	case directValue && isRep:
		// "A node that directly contains its value and also has siblings
		// with the same XML tag is considered a repeating node."
		cat = Repeating
	case directValue:
		cat = Attribute
	default:
		if isRep {
			cat |= Repeating
		}
		if entityTest(attrChildren, repChildren, bothChildren) {
			cat |= Entity
		}
		if cat == 0 {
			// Connecting = none of AN/RN/EN (Def 2.1.4).
			cat = Connecting
		}
	}
	info.Cat = cat

	// Visibility propagated to the parent.
	switch {
	case cat&Repeating != 0:
		// A repeating node is itself a repeating endpoint and hides any
		// attribute nodes inside it (Def 2.1.3: attributes "do not occur in
		// any repeating node").
		return false, true
	case cat == Attribute:
		return true, false
	default:
		qa := attrChildren+bothChildren > 0
		rv := repChildren+bothChildren > 0
		return qa, rv
	}
}

// entityTest implements Def 2.1.3: the node is the *lowest* common ancestor
// of a qualifying attribute node and a repeating group exactly when the
// attribute and the repeating endpoint are exposed by two distinct children
// (if a single child exposed both, that child's subtree would contain the
// whole set and the LCA would be deeper).
func entityTest(attr, rep, both int) bool {
	switch {
	case both >= 2:
		return true
	case both == 1:
		return attr+rep >= 1
	default:
		return attr >= 1 && rep >= 1
	}
}

// directTextValue returns the concatenated direct text of n and whether it
// has any text children.
func directTextValue(n *xmltree.Node) (string, bool) {
	has := false
	for _, c := range n.Children {
		if !c.IsElement() {
			has = true
			break
		}
	}
	if !has {
		return "", false
	}
	return n.Value(), true
}

func countTextChildren(n *xmltree.Node) int {
	count := 0
	for _, c := range n.Children {
		if !c.IsElement() {
			count++
		}
	}
	return count
}

func (b *builder) labelID(label string) int32 {
	if id, ok := b.ix.labelIDs[label]; ok {
		return id
	}
	id := int32(len(b.ix.Labels))
	b.ix.Labels = append(b.ix.Labels, label)
	b.ix.labelIDs[label] = id
	return id
}

func (b *builder) post(keyword string, ord int32) {
	list, ok := b.ix.Postings[keyword]
	if !ok && b.listCap > 0 {
		list = make([]int32, 0, b.listCap)
	}
	b.ix.Postings[keyword] = append(list, ord)
}

// finalizeStats completes a builder's statistics from its flat table.
func (ix *Index) finalizeStats() {
	s := &ix.Stats
	s.Documents = len(ix.DocNames)
	s.ElementNodes = len(ix.nodes)
	s.AttributeNodes, s.RepeatingNodes, s.EntityNodes, s.ConnectingNodes = 0, 0, 0, 0
	for i := range ix.nodes {
		s.addCategory(ix.nodes[i].Cat)
	}
	s.DistinctKeywords = len(ix.Postings)
	s.PostingEntries = 0
	for _, p := range ix.Postings {
		s.PostingEntries += len(p)
	}
}

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
func (ix *Index) LabelIDOf(ord int32) int32 { return ix.packed.labelOf(ord) }

// CatOf returns the category bit set of the node at ord.
func (ix *Index) CatOf(ord int32) Category { return ix.packed.catOf(ord) }

// ChildCountOf returns the direct child count (elements and text nodes) of
// the node at ord.
func (ix *Index) ChildCountOf(ord int32) int32 { return ix.packed.childCountOf(ord) }

// SubtreeSizeOf returns the element count of the subtree rooted at ord,
// including ord itself.
func (ix *Index) SubtreeSizeOf(ord int32) int32 { return ix.packed.subtreeOf(ord) }

// DepthOf returns the Dewey depth of the node at ord (document roots are
// depth 0) in O(1): the packed table stores depths explicitly.
func (ix *Index) DepthOf(ord int32) int32 { return ix.packed.depthOf(ord) }

// HasValueAt reports whether the node at ord directly contains text.
func (ix *Index) HasValueAt(ord int32) bool { return ix.packed.valIDOf(ord) >= 0 }

// ValueAt returns the concatenated direct text of the node at ord ("" when
// HasValueAt is false).
func (ix *Index) ValueAt(ord int32) string {
	if v := ix.packed.valIDOf(ord); v >= 0 {
		return ix.packed.value(v)
	}
	return ""
}

// IDOf returns the Dewey identifier of the node at ord. The path is
// materialized by a parent-chain walk (lazy expansion); result formatting
// is the only hot caller, so the allocation stays off the query's
// merge/window path.
func (ix *Index) IDOf(ord int32) dewey.ID { return ix.packed.idOf(ord) }

// DocOf returns the Dewey document number of the node at ord.
func (ix *Index) DocOf(ord int32) int32 { return ix.packed.docOf(ord) }

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
	p := ix.packed
	n := len(p.ordInst)
	i := sort.Search(n, func(i int) bool { return p.compareID(int32(i), id) >= 0 })
	if i < n && p.compareID(int32(i), id) == 0 && ix.LiveOrd(int32(i)) {
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
func (ix *Index) ParentOf(ord int32) int32 { return ix.packed.parentOf(ord) }

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
// the packed node table's (labels in range, parents preceding their
// children, subtree ranges inside the table) and posting lists strictly
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
