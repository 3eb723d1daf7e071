// Package schema infers a structural schema summary from indexed XML
// instances and re-categorizes nodes against it — the extension the paper
// names as future work in §2.2: "GKS can be easily extended to take into
// account the XML schema to categorize the nodes."
//
// Instance-level categorization (the paper's default, implemented by
// internal/index) classifies each node by its own subtree: an <article>
// with a single <author> is a connecting node because its author does not
// repeat *in that instance* (§7.2 observes exactly this on DBLP and SIGMOD
// Record). Schema-level categorization instead asks whether the schema
// allows the child to repeat — if <author> repeats under *any* article,
// every article classifies as an entity node. The Table 5 ablation
// (experiments.SchemaAblation) quantifies the difference.
package schema

import (
	"sort"

	"repro/internal/index"
)

// edge identifies a parent-label → child-label relationship.
type edge struct {
	parent int32
	child  int32
}

// Summary is an inferred structural schema: which parent→child element
// edges are repeating (maxOccurs > 1 observed anywhere in the data).
// Labels are interned per summary, so a summary may span several
// independently built indexes with disjoint label tables.
type Summary struct {
	labels   []string
	labelIDs map[string]int32
	repeats  map[edge]bool
	// edgeSeen tracks all observed edges, repeating or not.
	edgeSeen map[edge]bool
}

// Infer scans a built index and returns its schema summary. It needs only
// the node table (labels + parent pointers), not the original documents.
func Infer(ix *index.Index) *Summary { return InferIndexes(ix) }

// InferIndexes infers one schema summary across several indexes — e.g. the
// shards of a partitioned repository. Edges are unioned by label string: a
// child repeating under any parent instance in any index marks the edge
// repeating, which is exactly the summary Infer would compute on a single
// index holding all the documents.
func InferIndexes(ixs ...*index.Index) *Summary {
	s := &Summary{
		labelIDs: make(map[string]int32),
		repeats:  make(map[edge]bool),
		edgeSeen: make(map[edge]bool),
	}
	for _, ix := range ixs {
		local := make([]int32, len(ix.Labels))
		for i, l := range ix.Labels {
			local[i] = s.intern(l)
		}
		// Count same-label element children per parent. Children of a
		// parent are contiguous in no particular grouping, so count with a
		// map keyed by (parent ordinal, label). Ordinals collide across
		// indexes, so the counter map is per index.
		type pk struct {
			parent int32
			label  int32
		}
		counts := make(map[pk]int)
		// Only live nodes contribute: an edge exhibited solely by a
		// tombstoned document must not shape the schema the survivors are
		// categorized against.
		for _, sp := range ix.LiveSpans() {
			for ord := sp[0]; ord < sp[1]; ord++ {
				parent := ix.ParentOf(ord)
				if parent < 0 {
					continue
				}
				label := ix.LabelIDOf(ord)
				e := edge{local[ix.LabelIDOf(parent)], local[label]}
				s.edgeSeen[e] = true
				k := pk{parent, label}
				counts[k]++
				if counts[k] == 2 {
					s.repeats[e] = true
				}
			}
		}
	}
	return s
}

func (s *Summary) intern(label string) int32 {
	if id, ok := s.labelIDs[label]; ok {
		return id
	}
	id := int32(len(s.labels))
	s.labels = append(s.labels, label)
	s.labelIDs[label] = id
	return id
}

// Repeats reports whether child elements with label childLabel may repeat
// under parents labeled parentLabel according to the inferred schema.
func (s *Summary) Repeats(parentLabel, childLabel string) bool {
	pi, ok := s.labelID(parentLabel)
	if !ok {
		return false
	}
	ci, ok := s.labelID(childLabel)
	if !ok {
		return false
	}
	return s.repeats[edge{pi, ci}]
}

// Edges returns the observed parent→child label pairs in deterministic
// order, with their repetition flag — a printable schema summary.
func (s *Summary) Edges() []Edge {
	out := make([]Edge, 0, len(s.edgeSeen))
	for e := range s.edgeSeen {
		out = append(out, Edge{
			Parent:  s.labels[e.parent],
			Child:   s.labels[e.child],
			Repeats: s.repeats[e],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Parent != out[j].Parent {
			return out[i].Parent < out[j].Parent
		}
		return out[i].Child < out[j].Child
	})
	return out
}

// Edge is one parent→child relationship of the inferred schema.
type Edge struct {
	Parent  string
	Child   string
	Repeats bool
}

func (s *Summary) labelID(label string) (int32, bool) {
	id, ok := s.labelIDs[label]
	return id, ok
}

// Categorize computes schema-level categories for every node of the index
// (Defs 2.1.1–2.1.4 with "repeating" decided by the schema instead of the
// instance). The index is not modified; use Apply to install the result.
func (s *Summary) Categorize(ix *index.Index) []index.Category {
	n := ix.NodeCount()
	cats := make([]index.Category, n)
	// Per-node visibility, computed in reverse ordinal order (children
	// before parents, since children have larger pre-order ordinals).
	qualAttr := make([]bool, n)
	repVis := make([]bool, n)
	// attr/rep/both visibility counters per parent.
	attrC := make([]int, n)
	repC := make([]int, n)
	bothC := make([]int, n)

	// Translate the index's label IDs into the summary's interning — the
	// summary may have been inferred from other indexes (or several).
	local := make([]int32, len(ix.Labels))
	for i, l := range ix.Labels {
		if id, ok := s.labelIDs[l]; ok {
			local[i] = id
		} else {
			local[i] = -1 // label unknown to the schema: never repeating
		}
	}
	isRep := func(i int32) bool {
		parent := ix.ParentOf(i)
		if parent < 0 {
			return false
		}
		pl, cl := local[ix.LabelIDOf(parent)], local[ix.LabelIDOf(i)]
		if pl < 0 || cl < 0 {
			return false
		}
		return s.repeats[edge{pl, cl}]
	}

	for i := n - 1; i >= 0; i-- {
		ord := int32(i)
		directValue := ix.SubtreeSizeOf(ord) == 1 && ix.HasValueAt(ord) && ix.ChildCountOf(ord) == 1
		rep := isRep(ord)

		var cat index.Category
		switch {
		case directValue && rep:
			cat = index.Repeating
		case directValue:
			cat = index.Attribute
		default:
			if rep {
				cat |= index.Repeating
			}
			if entityTest(attrC[i], repC[i], bothC[i]) {
				cat |= index.Entity
			}
			if cat == 0 {
				cat = index.Connecting
			}
		}
		cats[i] = cat

		// Visibility toward the parent.
		var qa, rv bool
		switch {
		case cat&index.Repeating != 0:
			qa, rv = false, true
		case cat == index.Attribute:
			qa, rv = true, false
		default:
			qa = attrC[i]+bothC[i] > 0
			rv = repC[i]+bothC[i] > 0
		}
		qualAttr[i], repVis[i] = qa, rv
		if p := ix.ParentOf(ord); p >= 0 {
			switch {
			case qa && rv:
				bothC[p]++
			case qa:
				attrC[p]++
			case rv:
				repC[p]++
			}
		}
	}
	return cats
}

// entityTest mirrors internal/index: the node is the lowest common
// ancestor of a qualifying attribute and a repeating group exactly when
// two distinct children expose them.
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

// Apply installs schema-level categories into the index and refreshes its
// category statistics. It returns the number of live nodes whose category
// changed. The node table's category column is replaced in place
// (index.SetCategories), so the search engine picks the new entity
// structure up immediately; tombstoned documents keep their categories.
func Apply(ix *index.Index, cats []index.Category) int {
	return ix.SetCategories(cats)
}
