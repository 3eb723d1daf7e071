package index

import (
	"testing"

	"repro/internal/dewey"
	"repro/internal/textproc"
	"repro/internal/xmltree"
)

// The reference builder: an independent, deliberately plain construction
// of the node table the accessor oracle holds every served index to. It
// walks each parsed tree recursively, reads every node's Dewey ID off the
// tree, and classifies each node from its parent's view of the siblings
// (Defs 2.1.1–2.1.4), one flat NodeInfo record per element — the form the
// index kept before the builder wrote columns directly.

// NodeInfo is one element's reference row.
type NodeInfo struct {
	// ID is the node's Dewey identifier.
	ID dewey.ID
	// Label is an index into refIndex.Labels.
	Label int32
	// Cat is the node's category bit set.
	Cat Category
	// ChildCount is the number of direct children (elements and text
	// nodes).
	ChildCount int32
	// Subtree is the number of element nodes in the subtree rooted here,
	// including the node itself.
	Subtree int32
	// Parent is the ordinal of the parent element, or -1 for a document
	// root.
	Parent int32
	// HasValue reports whether the element directly contains text.
	HasValue bool
	// Value is the direct text children joined by single spaces.
	Value string
}

// refIndex is the reference build of a repository: its flat pre-order
// table with the label table its rows index, the posting lists and the
// statistics.
type refIndex struct {
	Labels   []string
	nodes    []NodeInfo
	Postings map[string][]int32
	Stats    Stats
}

// refBuild builds the reference table of repo.
func refBuild(repo *xmltree.Repository, opts Options) *refIndex {
	r := &refBuilder{
		ix:     &refIndex{Postings: map[string][]int32{}},
		opts:   opts,
		labels: map[string]int32{},
		norm:   textproc.NewMemo(),
	}
	for _, doc := range repo.Docs {
		r.walk(doc.Root, false, -1, 0)
	}
	s := &r.ix.Stats
	s.Documents = len(repo.Docs)
	s.ElementNodes = len(r.ix.nodes)
	for i := range r.ix.nodes {
		s.addCategory(r.ix.nodes[i].Cat)
	}
	s.DistinctKeywords = len(r.ix.Postings)
	for _, p := range r.ix.Postings {
		s.PostingEntries += len(p)
	}
	return r.ix
}

type refBuilder struct {
	ix     *refIndex
	opts   Options
	labels map[string]int32
	norm   *textproc.Memo
}

// walk appends n's row and its subtree's, posts their keywords in
// pre-order and returns what n's subtree exposes to its parent: qualAttr
// when it shows an attribute node not hidden inside a repeating node,
// repVis when it shows a repeating-node endpoint.
func (r *refBuilder) walk(n *xmltree.Node, isRep bool, parent int32, depth int) (qualAttr, repVis bool) {
	ix := r.ix
	ord := int32(len(ix.nodes))
	label, ok := r.labels[n.Label]
	if !ok {
		label = int32(len(ix.Labels))
		r.labels[n.Label] = label
		ix.Labels = append(ix.Labels, n.Label)
	}
	ix.nodes = append(ix.nodes, NodeInfo{ID: n.ID, Label: label, ChildCount: int32(len(n.Children)), Parent: parent})
	ix.Stats.MaxDepth = max(ix.Stats.MaxDepth, depth)

	seen := map[string]bool{}
	if r.opts.IndexElementNames {
		if key := r.norm.NormalizeKeyword(n.Label); key != "" {
			ix.Postings[key] = append(ix.Postings[key], ord)
			seen[key] = true
		}
	}
	texts := 0
	for _, c := range n.Children {
		if !c.IsElement() {
			texts++
		}
	}
	if texts > 0 {
		ix.Stats.TextNodes += texts
		for _, tok := range r.norm.Normalize(n.Value()) {
			if !seen[tok] {
				seen[tok] = true
				ix.Postings[tok] = append(ix.Postings[tok], ord)
			}
		}
	}

	sibs := map[string]int{}
	for _, c := range n.Children {
		if c.IsElement() {
			sibs[c.Label]++
		}
	}
	var attr, rep, both int
	for _, c := range n.Children {
		if !c.IsElement() {
			continue
		}
		switch qa, rv := r.walk(c, sibs[c.Label] > 1, ord, depth+1); {
		case qa && rv:
			both++
		case qa:
			attr++
		case rv:
			rep++
		}
	}

	info := &ix.nodes[ord]
	info.Subtree = int32(len(ix.nodes)) - ord
	if texts > 0 {
		info.HasValue, info.Value = true, n.Value()
	}
	var cat Category
	switch direct := n.DirectlyContainsValue(); {
	case direct && isRep:
		cat = Repeating
	case direct:
		cat = Attribute
	default:
		if isRep {
			cat |= Repeating
		}
		// The lowest common ancestor of an attribute node and a repeating
		// group: two distinct children expose them.
		if both >= 2 || (both == 1 && attr+rep >= 1) || (attr >= 1 && rep >= 1) {
			cat |= Entity
		}
		if cat == 0 {
			cat = Connecting
		}
	}
	info.Cat = cat
	switch {
	case cat&Repeating != 0:
		return false, true
	case cat == Attribute:
		return true, false
	default:
		return attr+both > 0, rep+both > 0
	}
}

// flatBuild is the reference table of repo under the default options.
func flatBuild(tb testing.TB, repo *xmltree.Repository) *refIndex {
	tb.Helper()
	return refBuild(repo, DefaultOptions())
}

// rows expands every row of ix's node table, tombstoned ones included.
func rows(ix *Index) []NodeInfo {
	out := make([]NodeInfo, ix.NodeCount())
	for i := range out {
		ord := int32(i)
		out[i] = NodeInfo{
			ID:         ix.IDOf(ord),
			Label:      ix.LabelIDOf(ord),
			Cat:        ix.CatOf(ord),
			ChildCount: ix.ChildCountOf(ord),
			Subtree:    ix.SubtreeSizeOf(ord),
			Parent:     ix.ParentOf(ord),
			HasValue:   ix.HasValueAt(ord),
			Value:      ix.ValueAt(ord),
		}
	}
	return out
}

// flatNodeBytes is the heap footprint a flat table would have: the
// NodeInfo structs plus every Dewey path backing array and value string.
func flatNodeBytes(nodes []NodeInfo) int64 {
	const nodeInfoSize = 72 // unsafe.Sizeof(NodeInfo{}) on 64-bit
	b := int64(len(nodes)) * nodeInfoSize
	for i := range nodes {
		b += int64(len(nodes[i].ID.Path))*4 + int64(len(nodes[i].Value))
	}
	return b
}
