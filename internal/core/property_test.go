package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/lca"
	"repro/internal/merge"
	"repro/internal/xmltree"
)

// Randomized invariant tests: the GKS pipeline is checked against its
// definitional properties on hundreds of random labeled trees, both with
// and without entity structure.

// randomTree builds a random document. withEntities controls whether the
// generator produces attribute+repeating patterns (so entity nodes exist).
func randomTree(rng *rand.Rand, withEntities bool) *xmltree.Document {
	words := []string{"apple", "pear", "plum", "fig", "cherry", "mango"}
	var build func(depth int) *xmltree.Node
	build = func(depth int) *xmltree.Node {
		if depth >= 5 || rng.Intn(4) == 0 {
			return xmltree.ET("leaf", words[rng.Intn(len(words))])
		}
		if withEntities && rng.Intn(3) == 0 {
			// Entity-shaped node: one attribute child + repeating members.
			e := xmltree.E("entity", xmltree.ET("label", words[rng.Intn(len(words))]))
			members := 2 + rng.Intn(3)
			for i := 0; i < members; i++ {
				m := xmltree.E("member")
				for j := 0; j < 1+rng.Intn(2); j++ {
					m.Append(build(depth + 2))
				}
				e.Append(m)
			}
			return e
		}
		n := xmltree.E(fmt.Sprintf("n%d", rng.Intn(4)))
		for i := 0; i < 1+rng.Intn(3); i++ {
			n.Append(build(depth + 1))
		}
		return n
	}
	root := xmltree.E("root")
	for i := 0; i < 2+rng.Intn(3); i++ {
		root.Append(build(1))
	}
	return xmltree.NewDocument("random.xml", 0, root)
}

// distinctInSubtree counts the distinct query keywords under ord.
func distinctInSubtree(ix *index.Index, lists [][]int32, ord int32) int {
	start, end := ix.SubtreeRange(ord)
	count := 0
	for _, list := range lists {
		lo, hi := merge.OrdRange(toEntries(list, 0), start, end)
		if hi > lo {
			count++
		}
	}
	return count
}

func toEntries(list []int32, kw uint8) []merge.Entry {
	out := make([]merge.Entry, len(list))
	for i, v := range list {
		out[i] = merge.Entry{Ord: v, Kw: kw}
	}
	return out
}

func TestPropertyThresholdAndWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 120; trial++ {
		doc := randomTree(rng, trial%2 == 0)
		ix, err := index.BuildDocument(doc, index.Options{IndexElementNames: false})
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(ix)
		terms := []string{"apple", "pear", "plum", "fig"}
		q := NewQuery(terms...)
		lists := eng.PostingLists(q)
		for s := 1; s <= 4; s++ {
			resp, err := eng.Search(q, s)
			if err != nil {
				t.Fatal(err)
			}
			masks := map[int32]uint64{}
			for _, r := range resp.Results {
				masks[r.Ord] = r.Mask
				// P1: every result holds >= s distinct keywords, verified
				// against the raw posting lists (not the engine's own mask).
				if got := distinctInSubtree(ix, lists, r.Ord); got < s {
					t.Fatalf("trial %d s=%d: result %s has %d distinct keywords",
						trial, s, r.ID, got)
				}
				if got := bits.OnesCount64(r.Mask); got != r.KeywordCount {
					t.Fatalf("mask/count mismatch on %s", r.ID)
				}
				// P2: no document roots in the response.
				if len(r.ID.Path) == 1 {
					t.Fatalf("trial %d: document root returned", trial)
				}
			}
			// P3: independent witness — every result carries a keyword not
			// covered by the union of its descendant results.
			for _, r := range resp.Results {
				var covered uint64
				for ord, m := range masks {
					if ord != r.Ord && ix.ContainsOrd(r.Ord, ord) {
						covered |= m
					}
				}
				if r.Mask&^covered == 0 {
					t.Fatalf("trial %d s=%d: result %s has no independent witness",
						trial, s, r.ID)
				}
			}
		}
	}
}

func TestPropertyLemma2Monotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		doc := randomTree(rng, trial%2 == 0)
		ix, err := index.BuildDocument(doc, index.Options{IndexElementNames: false})
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(ix)
		q := NewQuery("apple", "pear", "plum")
		var prev *Response
		for s := 3; s >= 1; s-- {
			resp, err := eng.Search(q, s)
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil {
				// |R(s+1)| <= |R(s)|.
				if len(prev.Results) > len(resp.Results) {
					t.Fatalf("trial %d: |R(%d)|=%d > |R(%d)|=%d",
						trial, s+1, len(prev.Results), s, len(resp.Results))
				}
				// Every R(s+1) node has an ancestor-or-self in R(s) (the
				// mapping used in the paper's Lemma 2 proof).
				for _, hi := range prev.Results {
					found := false
					for _, lo := range resp.Results {
						if lo.ID.IsAncestorOrSelf(hi.ID) || hi.ID.IsAncestorOrSelf(lo.ID) {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("trial %d: R(%d) node %s unrelated to every R(%d) node",
							trial, s+1, hi.ID, s)
					}
				}
			}
			prev = resp
		}
	}
}

func TestPropertySLCACoverage(t *testing.T) {
	// At s = |Q| every SLCA node must have a response node on its ancestor
	// path (itself, or its LCE lift) — "GKS response includes LCA nodes,
	// if any" (§1, abstract).
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		doc := randomTree(rng, trial%2 == 1)
		ix, err := index.BuildDocument(doc, index.Options{IndexElementNames: false})
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(ix)
		q := NewQuery("apple", "pear")
		lists := eng.PostingLists(q)
		slcas := lca.SLCA(ix, lists)
		resp, err := eng.Search(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		full := uint64(1)<<uint(q.Len()) - 1
		for _, sl := range slcas {
			if ix.DepthOf(sl) == 0 {
				continue // roots are excluded from GKS responses by design
			}
			covered := false
			for _, r := range resp.Results {
				if r.ID.IsAncestorOrSelf(ix.IDOf(sl)) {
					covered = true
					break
				}
			}
			if covered {
				continue
			}
			// An SLCA can legitimately go uncovered when its LCE lift loses
			// its independent witness to a nested entity elsewhere
			// (Def 2.2.1); in that case the response must still contain a
			// full-match node — the user never loses the AND answer.
			fullMatch := false
			for _, r := range resp.Results {
				if r.Mask == full {
					fullMatch = true
					break
				}
			}
			if !fullMatch {
				t.Fatalf("trial %d: SLCA %s uncovered and no full-match result", trial, ix.IDOf(sl))
			}
		}
		// And if an SLCA exists below the root, the response is non-empty.
		nonRootSLCA := false
		for _, sl := range slcas {
			if ix.DepthOf(sl) > 0 {
				nonRootSLCA = true
			}
		}
		if nonRootSLCA && len(resp.Results) == 0 {
			t.Fatalf("trial %d: empty response despite non-root SLCA", trial)
		}
	}
}

func TestPropertyRankBounds(t *testing.T) {
	// rank(e) <= P|e: the potential-flow rank never exceeds the initial
	// potential, and is strictly positive for every result.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 80; trial++ {
		doc := randomTree(rng, true)
		ix, err := index.BuildDocument(doc, index.Options{IndexElementNames: false})
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(ix)
		resp, err := eng.Search(NewQuery("apple", "pear", "plum"), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range resp.Results {
			if r.Rank <= 0 {
				t.Fatalf("trial %d: non-positive rank %v for %s", trial, r.Rank, r.ID)
			}
			if r.Rank > float64(r.KeywordCount)+1e-9 {
				t.Fatalf("trial %d: rank %v exceeds potential %d for %s",
					trial, r.Rank, r.KeywordCount, r.ID)
			}
		}
	}
}

func TestPropertyTopKAgreesWithFull(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 60; trial++ {
		doc := randomTree(rng, trial%2 == 0)
		ix, err := index.BuildDocument(doc, index.Options{IndexElementNames: false})
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(ix)
		q := NewQuery("apple", "pear", "plum")
		full, err := eng.Search(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3, 7} {
			topk, err := eng.SearchTopK(q, 1, k)
			if err != nil {
				t.Fatal(err)
			}
			want := k
			if len(full.Results) < want {
				want = len(full.Results)
			}
			if len(topk.Results) != want {
				t.Fatalf("trial %d k=%d: %d results, want %d",
					trial, k, len(topk.Results), want)
			}
			for i := range topk.Results {
				// Ranks must agree position-wise (ties may reorder equal-
				// rank results, so compare ranks rather than ordinals).
				if diff := topk.Results[i].Rank - full.Results[i].Rank; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("trial %d k=%d pos=%d: rank %v vs %v",
						trial, k, i, topk.Results[i].Rank, full.Results[i].Rank)
				}
			}
		}
	}
}

func TestPropertyDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	doc := randomTree(rng, true)
	ix, err := index.BuildDocument(doc, index.Options{IndexElementNames: false})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(ix)
	q := NewQuery("apple", "pear", "plum")
	first, err := eng.Search(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := eng.Search(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Results) != len(first.Results) {
			t.Fatal("non-deterministic result count")
		}
		for j := range again.Results {
			if again.Results[j].Ord != first.Results[j].Ord {
				t.Fatal("non-deterministic result order")
			}
		}
	}
}

func TestComputeMasksMatchesMaskTable(t *testing.T) {
	// Differential test: the engine's stack-sweep mask computation must
	// equal the sparse-table range OR for arbitrary nested candidates.
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 80; trial++ {
		doc := randomTree(rng, trial%2 == 0)
		ix, err := index.BuildDocument(doc, index.Options{IndexElementNames: false})
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(ix)
		lists := eng.PostingLists(NewQuery("apple", "pear", "plum"))
		sl := merge.Merge(lists)
		if len(sl) == 0 {
			continue
		}
		// Candidates: a random subset of element nodes (their ranges nest
		// or are disjoint by construction).
		var cands []*candidate
		for ord := int32(0); ord < int32(ix.NodeCount()); ord++ {
			if rng.Intn(3) == 0 {
				cands = append(cands, &candidate{ord: ord})
			}
		}
		computeMasks(ix, cands, sl, nil)
		mt := merge.NewMaskTable(sl)
		for _, c := range cands {
			start, end := ix.SubtreeRange(c.ord)
			if want := mt.SubtreeMask(start, end); c.mask != want {
				t.Fatalf("trial %d: node %s mask %b, table %b",
					trial, ix.IDOf(c.ord), c.mask, want)
			}
		}
	}
}
