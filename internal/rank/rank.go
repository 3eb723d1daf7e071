// Package rank implements the potential-flow ranking model of GKS
// (Agarwal et al., EDBT 2016, §5).
//
// Each candidate node e receives an initial potential P|e equal to the
// number of distinct query keywords in its subtree. The potential flows
// from e toward the leaves, dividing equally among the direct children at
// every node. The rank of e is the total potential received by its
// terminal points — the highest (shallowest) occurrence(s) of each query
// keyword in e's subtree; if a keyword occurs several times at its highest
// level, every such occurrence is a terminal point.
//
// The model makes a node's rank depend only on how many query keywords its
// subtree holds and how tightly the subtree packs them — never on the
// node's absolute depth in the document (verified by the paper's hybrid
// query experiment, §7.6).
package rank

import (
	"math/bits"

	"repro/internal/index"
	"repro/internal/merge"
)

// Scorer ranks one node at a time against a built index. It is the
// reference implementation of the model: the serving paths score every
// candidate of a query in one sweep over S_L (core's rank stage), and the
// differential tests hold that sweep to Score bit for bit — same divisions,
// same order of additions — through core's test oracle (SearchBaseline in
// baseline_test.go), which still calls Score once per candidate.
type Scorer struct {
	// IX is the index whose node table supplies Dewey depths, parent links
	// and the direct-child counts stored in the entity/element hashes.
	IX *index.Index
}

// Score computes the rank of the node at ordinal root. mask is the set of
// distinct query keywords in root's subtree and instances lists every
// keyword instance (S_L entries) within the subtree.
func (s Scorer) Score(root int32, mask uint64, instances []merge.Entry) float64 {
	p := float64(bits.OnesCount64(mask))
	if p == 0 {
		return 0
	}
	// Group instances by keyword, find each keyword's highest level, and
	// accumulate the potential received by every terminal point.
	total := 0.0
	for m := mask; m != 0; m &= m - 1 {
		kw := uint8(bits.TrailingZeros64(m))
		minDepth := -1
		for _, inst := range instances {
			if inst.Kw != kw {
				continue
			}
			d := int(s.IX.DepthOf(inst.Ord))
			if minDepth < 0 || d < minDepth {
				minDepth = d
			}
		}
		if minDepth < 0 {
			continue
		}
		for _, inst := range instances {
			if inst.Kw != kw || int(s.IX.DepthOf(inst.Ord)) != minDepth {
				continue
			}
			total += s.flow(root, inst.Ord, p)
		}
	}
	return total
}

// flow returns the potential a terminal at ordinal t receives from root:
// p divided by the direct-child counts of every node on the path from root
// down to t's parent.
func (s Scorer) flow(root, t int32, p float64) float64 {
	f := p
	for cur := t; cur != root; {
		parent := s.IX.ParentOf(cur)
		if parent < 0 {
			return 0 // t not in root's subtree; defensive
		}
		if cc := s.IX.ChildCountOf(parent); cc > 0 {
			f /= float64(cc)
		}
		cur = parent
	}
	return f
}
