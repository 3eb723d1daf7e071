package rank

import (
	"math"
	"testing"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/merge"
	"repro/internal/xmltree"
)

func build(t *testing.T, doc *xmltree.Document) *index.Index {
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
	lo, hi := merge.OrdRange(sl, start, end)
	return sl[lo:hi]
}

func TestExample5Arithmetic(t *testing.T) {
	// Direct re-check of Example 5 at the scorer level (the engine-level
	// check lives in the core package).
	ix := build(t, xmltree.BuildFigure1())
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
	ix := build(t, doc)
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
	ix := build(t, doc)
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
	ix := build(t, doc)
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
	ix := build(t, xmltree.BuildFigure1())
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
		ix := build(t, doc)
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
