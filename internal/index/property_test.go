package index

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dewey"
	"repro/internal/xmltree"
)

// Structural invariants of the index, checked on random documents with
// testing/quick driving the tree shapes.

func randomDoc(seed int64) *xmltree.Document {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"ant", "bee", "cat", "dog", "elk"}
	var build func(depth int) *xmltree.Node
	build = func(depth int) *xmltree.Node {
		if depth >= 5 || rng.Intn(3) == 0 {
			return xmltree.ET(fmt.Sprintf("v%d", rng.Intn(3)), words[rng.Intn(len(words))])
		}
		n := xmltree.E(fmt.Sprintf("e%d", rng.Intn(4)))
		for i := 0; i < 1+rng.Intn(3); i++ {
			n.Append(build(depth + 1))
		}
		return n
	}
	return xmltree.NewDocument("prop.xml", 0, build(0))
}

func TestPropertyNodeTableInvariants(t *testing.T) {
	f := func(seed int64) bool {
		doc := randomDoc(seed)
		ix, err := BuildDocument(doc, DefaultOptions())
		if err != nil {
			return false
		}
		nodes := rows(ix)
		for i := range nodes {
			n := &nodes[i]
			// Pre-order: IDs strictly increase.
			if i > 0 && dewey.Compare(nodes[i-1].ID, n.ID) >= 0 {
				return false
			}
			// Subtree sizes: 1 <= Subtree <= remaining nodes; nested ranges.
			if n.Subtree < 1 || int(n.Subtree) > len(nodes)-i {
				return false
			}
			// Parent is a proper pre-order predecessor whose range covers i.
			if n.Parent >= 0 {
				p := &nodes[n.Parent]
				if n.Parent >= int32(i) || !ix.ContainsOrd(n.Parent, int32(i)) {
					return false
				}
				if !p.ID.IsAncestorOf(n.ID) {
					return false
				}
			} else if len(n.ID.Path) != 1 {
				return false
			}
			// Category: exactly one of {AN, RN-or-EN combos, CN} per the
			// model — AN excludes everything else; CN excludes everything
			// else; RN and EN may combine.
			switch {
			case n.Cat == Attribute, n.Cat == Connecting:
			case n.Cat&(Attribute|Connecting) != 0:
				return false
			case n.Cat&(Repeating|Entity) == 0:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPropertySubtreeRangesNest(t *testing.T) {
	f := func(seed int64) bool {
		doc := randomDoc(seed)
		ix, err := BuildDocument(doc, DefaultOptions())
		if err != nil {
			return false
		}
		// Ranges of any two nodes either nest or are disjoint.
		for i := 0; i < ix.NodeCount(); i++ {
			si, ei := ix.SubtreeRange(int32(i))
			for j := i + 1; j < ix.NodeCount() && j < i+20; j++ {
				sj, ej := ix.SubtreeRange(int32(j))
				overlap := sj < ei && si < ej
				nested := (sj >= si && ej <= ei) || (si >= sj && ei <= ej)
				if overlap && !nested {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyPostingsPointAtValueOrLabel(t *testing.T) {
	f := func(seed int64) bool {
		doc := randomDoc(seed)
		ix, err := BuildDocument(doc, DefaultOptions())
		if err != nil {
			return false
		}
		for kw, list := range ix.Postings {
			prev := int32(-1)
			for _, ord := range list {
				if ord <= prev || int(ord) >= ix.NodeCount() {
					return false
				}
				prev = ord
				// The posting's node must carry the keyword in its value
				// or its (normalized) label.
				if !ix.HasValueAt(ord) && ix.LabelOf(ord) == "" {
					return false
				}
				_ = kw
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEntityDefinition(t *testing.T) {
	// Def 2.1.3 verified directly: every entity node must expose a
	// qualifying attribute and a repeating endpoint through two distinct
	// children, computed here independently from the tree.
	f := func(seed int64) bool {
		doc := randomDoc(seed)
		ix, err := BuildDocument(doc, DefaultOptions())
		if err != nil {
			return false
		}
		var check func(n *xmltree.Node) bool
		check = func(n *xmltree.Node) bool {
			if n.IsElement() {
				ord, ok := ix.OrdinalOf(n.ID)
				if !ok {
					return false
				}
				if ix.CatOf(ord)&Entity != 0 {
					if !entityByDefinition(n) {
						return false
					}
				}
			}
			for _, c := range n.Children {
				if c.IsElement() && !check(c) {
					return false
				}
			}
			return true
		}
		return check(doc.Root)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// entityByDefinition re-derives Def 2.1.3 from the raw tree.
func entityByDefinition(v *xmltree.Node) bool {
	type vis struct{ qa, rv bool }
	var visibility func(n *xmltree.Node, isRep bool) vis
	labelCounts := func(n *xmltree.Node) map[string]int {
		m := map[string]int{}
		for _, c := range n.Children {
			if c.IsElement() {
				m[c.Label]++
			}
		}
		return m
	}
	visibility = func(n *xmltree.Node, isRep bool) vis {
		direct := n.DirectlyContainsValue()
		if direct {
			if isRep {
				return vis{qa: false, rv: true}
			}
			return vis{qa: true, rv: false}
		}
		if isRep {
			return vis{qa: false, rv: true}
		}
		counts := labelCounts(n)
		var out vis
		for _, c := range n.Children {
			if !c.IsElement() {
				continue
			}
			cv := visibility(c, counts[c.Label] > 1)
			out.qa = out.qa || cv.qa
			out.rv = out.rv || cv.rv
		}
		return out
	}
	counts := labelCounts(v)
	attr, rep, both := 0, 0, 0
	for _, c := range v.Children {
		if !c.IsElement() {
			continue
		}
		cv := visibility(c, counts[c.Label] > 1)
		switch {
		case cv.qa && cv.rv:
			both++
		case cv.qa:
			attr++
		case cv.rv:
			rep++
		}
	}
	switch {
	case both >= 2:
		return true
	case both == 1:
		return attr+rep >= 1
	default:
		return attr >= 1 && rep >= 1
	}
}
