package lca

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/xmltree"
)

func fig1(t *testing.T) (*index.Index, *core.Engine) {
	t.Helper()
	ix, err := index.BuildDocument(xmltree.BuildFigure1(), index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ix, core.NewEngine(ix)
}

func fig2a(t *testing.T) (*index.Index, *core.Engine) {
	t.Helper()
	ix, err := index.BuildDocument(xmltree.BuildFigure2a(), index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ix, core.NewEngine(ix)
}

func labels(ix *index.Index, ords []int32) []string {
	out := make([]string, len(ords))
	for i, o := range ords {
		out[i] = ix.LabelOf(o)
	}
	return out
}

func TestTable1SLCAandELCA(t *testing.T) {
	ix, eng := fig1(t)
	q1 := eng.PostingLists(core.NewQuery("alpha", "beta", "gamma"))
	q2 := eng.PostingLists(core.NewQuery("alpha", "beta", "epsilon"))
	q3 := eng.PostingLists(core.NewQuery("alpha", "beta", "gamma", "delta"))

	// Q1: SLCA {x2}, ELCA {x1, x2}.
	if got := labels(ix, SLCA(ix, q1)); len(got) != 1 || got[0] != "x2" {
		t.Errorf("SLCA(Q1) = %v, want [x2]", got)
	}
	if got := labels(ix, ELCA(ix, q1)); len(got) != 2 || got[0] != "x1" || got[1] != "x2" {
		t.Errorf("ELCA(Q1) = %v, want [x1 x2]", got)
	}

	// Q2: both NULL (epsilon does not occur).
	if got := SLCA(ix, q2); len(got) != 0 {
		t.Errorf("SLCA(Q2) = %v, want empty", labels(ix, got))
	}
	if got := ELCA(ix, q2); len(got) != 0 {
		t.Errorf("ELCA(Q2) = %v, want empty", labels(ix, got))
	}

	// Q3: both {r}.
	if got := labels(ix, SLCA(ix, q3)); len(got) != 1 || got[0] != "r" {
		t.Errorf("SLCA(Q3) = %v, want [r]", got)
	}
	if got := labels(ix, ELCA(ix, q3)); len(got) != 1 || got[0] != "r" {
		t.Errorf("ELCA(Q3) = %v, want [r]", got)
	}
}

func TestSLCASection23(t *testing.T) {
	ix, eng := fig2a(t)
	// Perfect query Q5 = {student, karen, mike, john}: the SLCA is the
	// <Students> node n0.1.1.0.1 — shallower context than GKS's Course.
	lists := eng.PostingLists(core.NewQuery("student", "karen", "mike", "john"))
	got := SLCA(ix, lists)
	if len(got) != 1 {
		t.Fatalf("SLCA = %v, want single node", labels(ix, got))
	}
	if id := ix.IDOf(got[0]).String(); id != "0.0.1.1.0.1" {
		t.Errorf("SLCA = %s, want Students 0.0.1.1.0.1", id)
	}
}

func TestSLCANestedNotReturned(t *testing.T) {
	ix, eng := fig2a(t)
	// {karen} alone: every Student named Karen is its own SLCA (leaf level).
	lists := eng.PostingLists(core.NewQuery("karen"))
	got := SLCA(ix, lists)
	if len(got) != 3 {
		t.Fatalf("SLCA(karen) = %d nodes, want 3", len(got))
	}
	for _, o := range got {
		if ix.LabelOf(o) != "Student" {
			t.Errorf("SLCA(karen) includes %s", ix.LabelOf(o))
		}
	}
}

func TestELCAIsSupersetOfSLCA(t *testing.T) {
	ix, eng := fig2a(t)
	queries := []core.Query{
		core.NewQuery("karen", "mike"),
		core.NewQuery("student", "karen"),
		core.NewQuery("karen", "john"),
		core.NewQuery("databases", "karen"),
	}
	for _, q := range queries {
		lists := eng.PostingLists(q)
		s := SLCA(ix, lists)
		e := ELCA(ix, lists)
		inE := map[int32]bool{}
		for _, o := range e {
			inE[o] = true
		}
		for _, o := range s {
			if !inE[o] {
				t.Errorf("query %v: SLCA node %s missing from ELCA", q, ix.IDOf(o))
			}
		}
	}
}

func TestEmptyAndMissingLists(t *testing.T) {
	ix, _ := fig1(t)
	if got := SLCA(ix, nil); got != nil {
		t.Errorf("SLCA(nil) = %v", got)
	}
	if got := SLCA(ix, [][]int32{{}, {1}}); got != nil {
		t.Errorf("SLCA with empty list = %v", got)
	}
	if got := ELCA(ix, [][]int32{{}}); got != nil {
		t.Errorf("ELCA with empty list = %v", got)
	}
	if got := NaiveGKS(ix, nil, 1); got != nil {
		t.Errorf("NaiveGKS(nil) = %v", got)
	}
}

func TestNaiveGKSSubsetSemantics(t *testing.T) {
	ix, eng := fig1(t)
	// Q3 with s=2: naive enumeration over all subsets of size >= 2.
	lists := eng.PostingLists(core.NewQuery("alpha", "beta", "gamma", "delta"))
	got := NaiveGKS(ix, lists, 2)
	// Every returned node must contain at least 2 distinct query keywords.
	for _, o := range got {
		start, end := ix.SubtreeRange(o)
		distinct := 0
		for _, list := range lists {
			if countInRange(list, start, end) > 0 {
				distinct++
			}
		}
		if distinct < 2 {
			t.Errorf("naive node %s has %d distinct keywords", ix.IDOf(o), distinct)
		}
	}
	// x2, x3, x4 must all be found (they are SLCAs of subsets).
	want := map[string]bool{"x2": false, "x3": false, "x4": false}
	for _, o := range got {
		if _, ok := want[ix.LabelOf(o)]; ok {
			want[ix.LabelOf(o)] = true
		}
	}
	for label, found := range want {
		if !found {
			t.Errorf("naive enumeration missed %s", label)
		}
	}
}

func TestNaiveGKSCoversGKSResults(t *testing.T) {
	// Oracle: on trees without entity nodes, every GKS result node must
	// appear in the naive subset-SLCA union (GKS prunes ancestors; naive
	// finds all minimal nodes).
	ix, eng := fig1(t)
	q := core.NewQuery("alpha", "beta", "gamma", "delta")
	lists := eng.PostingLists(q)
	for s := 1; s <= 4; s++ {
		resp, err := eng.Search(q, s)
		if err != nil {
			t.Fatal(err)
		}
		naive := map[int32]bool{}
		for _, o := range NaiveGKS(ix, lists, s) {
			naive[o] = true
		}
		for _, r := range resp.Results {
			if !naive[r.Ord] {
				t.Errorf("s=%d: GKS result %s (%s) not in naive subset union", s, r.Label, r.ID)
			}
		}
	}
}

func TestSLCARandomTreesAgainstBruteForce(t *testing.T) {
	// Property test: stack/window SLCA equals a brute-force check on random
	// trees.
	rng := rand.New(rand.NewSource(123))
	words := []string{"w0", "w1", "w2", "w3"}
	for trial := 0; trial < 40; trial++ {
		var build func(depth int) *xmltree.Node
		build = func(depth int) *xmltree.Node {
			n := xmltree.E("n")
			if depth >= 4 || rng.Intn(3) == 0 {
				n.Append(xmltree.T(words[rng.Intn(len(words))]))
				return n
			}
			for i := 0; i < 1+rng.Intn(3); i++ {
				n.Append(build(depth + 1))
			}
			return n
		}
		doc := xmltree.NewDocument("rand", 0, build(0))
		ix, err := index.BuildDocument(doc, index.Options{IndexElementNames: false})
		if err != nil {
			t.Fatal(err)
		}
		eng := core.NewEngine(ix)
		q := core.NewQuery("w0", "w1")
		lists := eng.PostingLists(q)
		got := SLCA(ix, lists)

		// Brute force: qualifying nodes with no qualifying descendant.
		var want []int32
		for ord := int32(0); ord < int32(ix.NodeCount()); ord++ {
			start, end := ix.SubtreeRange(ord)
			if countInRange(lists[0], start, end) == 0 || countInRange(lists[1], start, end) == 0 {
				continue
			}
			minimal := true
			for d := int32(ord) + 1; d < end; d++ {
				ds, de := ix.SubtreeRange(d)
				if countInRange(lists[0], ds, de) > 0 && countInRange(lists[1], ds, de) > 0 {
					minimal = false
					break
				}
			}
			if minimal {
				want = append(want, int32(ord))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: SLCA = %v, want %v", trial, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: SLCA[%d] = %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestELCAWitnessSemantics(t *testing.T) {
	// Hand-built nested case: root has its own witnesses plus a child that
	// contains all keywords; both are ELCAs, only the child is SLCA.
	doc := xmltree.NewDocument("nested", 0, xmltree.E("root",
		xmltree.ET("v", "apple"),
		xmltree.ET("v", "pear"),
		xmltree.E("mid",
			xmltree.ET("v", "apple"),
			xmltree.ET("v", "pear"),
		),
	))
	ix, err := index.BuildDocument(doc, index.Options{IndexElementNames: false})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(ix)
	lists := eng.PostingLists(core.NewQuery("apple", "pear"))
	s := SLCA(ix, lists)
	if len(s) != 1 || ix.LabelOf(s[0]) != "mid" {
		t.Fatalf("SLCA = %v", labels(ix, s))
	}
	e := ELCA(ix, lists)
	if len(e) != 2 || ix.LabelOf(e[0]) != "root" || ix.LabelOf(e[1]) != "mid" {
		t.Fatalf("ELCA = %v, want [root mid]", labels(ix, e))
	}

	// Removing root's own pear witness demotes root from the ELCA set.
	doc2 := xmltree.NewDocument("nested2", 0, xmltree.E("root",
		xmltree.ET("v", "apple"),
		xmltree.E("mid",
			xmltree.ET("v", "apple"),
			xmltree.ET("v", "pear"),
		),
	))
	ix2, err := index.BuildDocument(doc2, index.Options{IndexElementNames: false})
	if err != nil {
		t.Fatal(err)
	}
	eng2 := core.NewEngine(ix2)
	lists2 := eng2.PostingLists(core.NewQuery("apple", "pear"))
	e2 := ELCA(ix2, lists2)
	if len(e2) != 1 || ix2.LabelOf(e2[0]) != "mid" {
		t.Fatalf("ELCA without root witness = %v, want [mid]", labels(ix2, e2))
	}
}
