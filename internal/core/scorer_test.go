package core

// The reference scorer of the potential-flow ranking model of GKS
// (Agarwal et al., EDBT 2016, §5), and its tests.
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
import (
	"math"
	"math/bits"
	"sort"
	"testing"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/merge"
	"repro/internal/xmltree"
)

// Scorer ranks one node at a time against a built index. It is the
// reference implementation of the model: the serving paths score every
// candidate of a query in one sweep over S_L (rankAll), and the
// differential tests hold that sweep to Score bit for bit — same divisions,
// same order of additions — through the test oracle SearchBaseline
// (baseline_test.go), which still calls Score once per candidate.
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

func scorerIndex(t *testing.T, doc *xmltree.Document) *index.Index {
	t.Helper()
	ix, err := index.BuildDocument(doc, index.Options{IndexElementNames: false})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// entriesFor builds S_L-style instances for the given keyword → posting map
// restricted to the subtree of root.
func entriesFor(ix *index.Index, root int32, lists [][]int32) []merge.Entry {
	sl := merge.Merge(lists)
	start, end := ix.SubtreeRange(root)
	lo := sort.Search(len(sl), func(i int) bool { return sl[i].Ord >= start })
	hi := sort.Search(len(sl), func(i int) bool { return sl[i].Ord >= end })
	return sl[lo:hi]
}

func TestExample5Arithmetic(t *testing.T) {
	// Direct re-check of Example 5 at the scorer level (TestExample5Ranks
	// checks it through the engine).
	ix := scorerIndex(t, xmltree.BuildFigure1())
	s := Scorer{IX: ix}
	lists := [][]int32{
		ix.Lookup("alpha"),
		ix.Lookup("beta"),
		ix.Lookup("gamma"),
		ix.Lookup("delta"),
	}
	cases := []struct {
		dewey string
		mask  uint64
		want  float64
	}{
		{"0.0.0.3", 0b0111, 3.0}, // x2: three terminals, three children
		{"0.0.1", 0b1011, 2.5},   // x3: a,b direct + d through x4
		{"0.0.1.2", 0b1001, 2.0}, // x4: two terminals, two children
	}
	for _, c := range cases {
		ord, ok := ix.OrdinalOf(mustID(t, c.dewey))
		if !ok {
			t.Fatalf("node %s missing", c.dewey)
		}
		got := s.Score(ord, c.mask, entriesFor(ix, ord, lists))
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Score(%s) = %v, want %v", c.dewey, got, c.want)
		}
	}
}

func TestTerminalAtRootReceivesFullPotential(t *testing.T) {
	doc := xmltree.NewDocument("r", 0, xmltree.E("root",
		xmltree.T("apple"),
		xmltree.E("c", xmltree.T("pear")),
	))
	ix := scorerIndex(t, doc)
	s := Scorer{IX: ix}
	lists := [][]int32{ix.Lookup("apple"), ix.Lookup("pear")}
	root := int32(0)
	got := s.Score(root, 0b11, entriesFor(ix, root, lists))
	// apple sits at the root itself (full potential 2); pear at child c of
	// a 2-child root: 2/2 = 1.
	if math.Abs(got-3.0) > 1e-9 {
		t.Errorf("Score = %v, want 3.0", got)
	}
}

func TestMultipleTerminalsAtSameHighestLevel(t *testing.T) {
	// Keyword occurring twice at the highest level: both occurrences are
	// terminal points (§5).
	doc := xmltree.NewDocument("m", 0, xmltree.E("root",
		xmltree.ET("v", "apple"),
		xmltree.ET("v", "apple"),
		xmltree.E("deep", xmltree.ET("v", "apple")),
	))
	ix := scorerIndex(t, doc)
	s := Scorer{IX: ix}
	lists := [][]int32{ix.Lookup("apple")}
	got := s.Score(0, 0b1, entriesFor(ix, 0, lists))
	// P = 1; two terminals at depth 1 each receive 1/3 (root has 3
	// children); the deeper occurrence is not terminal.
	if math.Abs(got-2.0/3.0) > 1e-9 {
		t.Errorf("Score = %v, want 2/3", got)
	}
}

func TestHigherOccurrenceShadowsDeeper(t *testing.T) {
	doc := xmltree.NewDocument("h", 0, xmltree.E("root",
		xmltree.ET("v", "apple"),
		xmltree.E("mid", xmltree.ET("v", "apple"), xmltree.ET("w", "pear")),
	))
	ix := scorerIndex(t, doc)
	s := Scorer{IX: ix}
	lists := [][]int32{ix.Lookup("apple"), ix.Lookup("pear")}
	got := s.Score(0, 0b11, entriesFor(ix, 0, lists))
	// apple terminal at depth 1: 2/2 = 1; pear at depth 2 under mid (2
	// children): 2/(2*2) = 0.5.
	if math.Abs(got-1.5) > 1e-9 {
		t.Errorf("Score = %v, want 1.5", got)
	}
}

func TestZeroMask(t *testing.T) {
	ix := scorerIndex(t, xmltree.BuildFigure1())
	s := Scorer{IX: ix}
	if got := s.Score(0, 0, nil); got != 0 {
		t.Errorf("Score with empty mask = %v, want 0", got)
	}
}

func TestRankIndependentOfAbsoluteDepth(t *testing.T) {
	// §7.6: entity nodes are ranked by keyword count and distribution, not
	// by their depth below the document root. Wrap the same subtree deeper
	// and verify the score is unchanged.
	leafy := func() *xmltree.Node {
		return xmltree.E("box",
			xmltree.ET("v", "apple"),
			xmltree.ET("v", "pear"),
		)
	}
	shallow := xmltree.NewDocument("s", 0, xmltree.E("root", leafy()))
	deep := xmltree.NewDocument("d", 0, xmltree.E("root",
		xmltree.E("l1", xmltree.E("l2", xmltree.E("l3", leafy())))))

	score := func(doc *xmltree.Document) float64 {
		ix := scorerIndex(t, doc)
		var box int32 = -1
		for ord := int32(0); ord < int32(ix.NodeCount()); ord++ {
			if ix.LabelOf(ord) == "box" {
				box = ord
			}
		}
		if box < 0 {
			t.Fatal("box not found")
		}
		lists := [][]int32{ix.Lookup("apple"), ix.Lookup("pear")}
		return Scorer{IX: ix}.Score(box, 0b11, entriesFor(ix, box, lists))
	}
	if a, b := score(shallow), score(deep); math.Abs(a-b) > 1e-9 {
		t.Errorf("depth changed the score: %v vs %v", a, b)
	}
}

func mustID(t *testing.T, s string) dewey.ID {
	t.Helper()
	return dewey.MustParse(s)
}
