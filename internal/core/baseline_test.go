package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/merge"
	"repro/internal/rank"
	"repro/internal/xmltree"
)

// SearchBaseline executes the query with the pre-overhaul pipeline kept
// verbatim from the original implementation: a container/heap k-way merge,
// map-keyed scratch tables (lcpCounts, byOrd), one *candidate allocation
// per distinct lifted node, a fresh S_L slice per query and one
// rank.Scorer call per survivor. It is the test oracle: the property tests
// diff the arena-based hot path and its one-sweep rank stage against it
// (the responses must be identical, ranks bit for bit).
func (e *Engine) SearchBaseline(q Query, s int) (*Response, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if s < 1 {
		s = 1
	}
	if s > q.Len() {
		s = q.Len()
	}
	resp := &Response{Query: q, S: s}

	// 1. Merge the posting lists into S_L with the heap merge.
	lists := make([][]int32, q.Len())
	for i, kw := range q.Keywords {
		lists[i] = e.postings(kw)
	}
	if err := e.ix.LazyErr(); err != nil {
		return nil, err
	}
	sl := merge.MergeHeap(lists)
	resp.SLSize = len(sl)
	if len(sl) == 0 {
		return resp, nil
	}

	// 2. Sliding-window block scan into a map of LCP counts.
	lcpCounts := make(map[int32]int)
	merge.Windows(sl, s, func(l, r int) {
		if ord, ok := e.lcpNodeDewey(sl[l].Ord, sl[r].Ord); ok {
			lcpCounts[ord]++
		}
	})

	// 3. Lift candidates, deduping through a map of heap-allocated
	// candidates.
	byOrd := make(map[int32]*candidate)
	for ord, count := range lcpCounts {
		lifted := ord
		for e.ix.CatOf(lifted)&index.Attribute != 0 && e.ix.ParentOf(lifted) >= 0 {
			lifted = e.ix.ParentOf(lifted)
		}
		final, isEntity := lifted, false
		if ent, ok := e.ix.LowestEntityAncestorOrSelf(lifted); ok {
			final, isEntity = ent, true
		}
		if e.ix.DepthOf(final) == 0 && final != lifted {
			final, isEntity = lifted, false
		}
		if e.ix.DepthOf(final) == 0 {
			continue
		}
		c := byOrd[final]
		if c == nil {
			c = &candidate{ord: final, isEntity: isEntity}
			byOrd[final] = c
		}
		c.lcp += count
	}

	cands := make([]*candidate, 0, len(byOrd))
	for _, c := range byOrd {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ord < cands[j].ord })
	computeMasks(e.ix, cands, sl, nil)

	// 4. Independent-witness filter.
	var stack []*candidate
	finalize := func(c *candidate) {
		c.survives = c.mask&^c.covered != 0
		if len(stack) > 0 {
			parent := stack[len(stack)-1]
			if c.survives {
				parent.covered |= c.mask
			} else {
				parent.covered |= c.covered
			}
		}
	}
	for _, c := range cands {
		for len(stack) > 0 && !e.ix.ContainsOrd(stack[len(stack)-1].ord, c.ord) {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			finalize(top)
		}
		stack = append(stack, c)
	}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		finalize(top)
	}

	// 5. Rank the survivors one by one with the reference scorer, each over
	// its own S_L slice, and order the response with a comparison sort.
	scorer := rank.Scorer{IX: e.ix}
	for _, c := range cands {
		if !c.survives {
			continue
		}
		start, end := e.ix.SubtreeRange(c.ord)
		lo, hi := merge.OrdRange(sl, start, end)
		resp.Results = append(resp.Results, e.resultOf(c, scorer.Score(c.ord, c.mask, sl[lo:hi])))
	}
	sort.Slice(resp.Results, func(i, j int) bool { return ResultBefore(resp.Results[i], resp.Results[j]) })
	resp.Total = len(resp.Results)
	return resp, nil
}

// lcpNodeDewey is the seed implementation of lcpNode: compute the longest
// common Dewey prefix, then resolve it to an ordinal by binary search.
func (e *Engine) lcpNodeDewey(a, b int32) (int32, bool) {
	if a == b {
		return a, true
	}
	lca, ok := dewey.LCA(e.ix.IDOf(a), e.ix.IDOf(b))
	if !ok {
		return 0, false
	}
	return e.ix.OrdinalOf(lca)
}

// requireSameResponse diffs two responses field by field, ranks bit for bit
// (Stages excluded: timings are never part of the search contract).
func requireSameResponse(t *testing.T, label string, got, want *Response) {
	t.Helper()
	if got.S != want.S || got.SLSize != want.SLSize || got.Total != want.Total {
		t.Fatalf("%s: S/SLSize/Total = %d/%d/%d, want %d/%d/%d", label, got.S, got.SLSize, got.Total, want.S, want.SLSize, want.Total)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d results, want %d", label, len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		g, w := got.Results[i], want.Results[i]
		if g.Ord != w.Ord || g.ID.String() != w.ID.String() || g.Label != w.Label ||
			g.IsEntity != w.IsEntity || g.Mask != w.Mask || g.KeywordCount != w.KeywordCount ||
			g.LCPCount != w.LCPCount || math.Float64bits(g.Rank) != math.Float64bits(w.Rank) {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// requireMatchesBaseline holds every ranked entry point of the flat and the
// packed engine over ix against the retained seed pipeline, whose ranks come
// from rank.Scorer one candidate at a time: Search and Explain must equal it,
// and SearchTopK must equal its k-prefix around both ends of |R| — with
// Total still |R| (the baseline's len(Results)) whatever k is.
func requireMatchesBaseline(t *testing.T, label string, ix *index.Index, q Query) {
	t.Helper()
	flat := NewEngine(ix)
	for s := 1; s <= q.Len(); s++ {
		want, err := flat.SearchBaseline(q, s)
		if err != nil {
			t.Fatal(err)
		}
		n := len(want.Results)
		for name, eng := range map[string]*Engine{"flat": flat, "packed": NewEngine(ix.Pack())} {
			label := fmt.Sprintf("%s %s s=%d", label, name, s)
			got, err := eng.Search(q, s)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResponse(t, label, got, want)
			ex, err := eng.Explain(q, s)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResponse(t, label+" explain", ex.Response, want)
			if ex.Survivors != n {
				t.Fatalf("%s: explain survivors %d, want %d", label, ex.Survivors, n)
			}
			for _, k := range []int{0, 1, 10, n - 1, n, n + 1} {
				topk, err := eng.SearchTopK(q, s, k)
				if err != nil {
					t.Fatal(err)
				}
				prefix := *want
				if k > 0 && k < n {
					prefix.Results = want.Results[:k]
				}
				requireSameResponse(t, fmt.Sprintf("%s topk=%d", label, k), topk, &prefix)
			}
		}
	}
}

// TestSearchMatchesBaseline is the hot path's oracle: the arena-based
// pipeline and its one-sweep rank stage must produce responses identical to
// the retained seed pipeline across random corpora, thresholds and result
// limits.
func TestSearchMatchesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 150; trial++ {
		doc := randomTree(rng, trial%2 == 0)
		ix, err := index.BuildDocument(doc, index.Options{IndexElementNames: false})
		if err != nil {
			t.Fatal(err)
		}
		requireMatchesBaseline(t, fmt.Sprintf("trial %d", trial), ix, NewQuery("apple", "pear", "plum", "fig"))
	}
}

// allocBenchDoc builds one document that is large enough for steady-state
// behavior to dominate: many entity-shaped nodes whose leaves draw from a
// small vocabulary, giving posting lists in the thousands.
func allocBenchDoc(entities int) *xmltree.Document {
	words := []string{"alpha", "beta", "gamma", "delta"}
	rng := rand.New(rand.NewSource(9))
	root := xmltree.E("root")
	for i := 0; i < entities; i++ {
		e := xmltree.E("entity", xmltree.ET("name", words[rng.Intn(len(words))]))
		for j := 0; j < 3; j++ {
			m := xmltree.E("member")
			for l := 0; l < 2; l++ {
				m.Append(xmltree.ET("leaf", words[rng.Intn(len(words))]))
			}
			e.Append(m)
		}
		root.Append(e)
	}
	return xmltree.NewDocument("alloc.xml", 0, root)
}

func allocBenchEngine(tb testing.TB, entities int) *Engine {
	tb.Helper()
	ix, err := index.BuildDocument(allocBenchDoc(entities), index.Options{IndexElementNames: false})
	if err != nil {
		tb.Fatal(err)
	}
	return NewEngine(ix)
}

// TestSearchAllocsSteadyState pins the arena win: on a warmed engine a
// search must allocate less than half of what the seed pipeline allocates
// for the same query (the acceptance bar is ≥50% fewer allocations).
func TestSearchAllocsSteadyState(t *testing.T) {
	eng := allocBenchEngine(t, 400)
	q := NewQuery("alpha", "beta", "gamma")
	if _, err := eng.Search(q, 2); err != nil { // warm the arena pool
		t.Fatal(err)
	}
	baseline := testing.AllocsPerRun(10, func() {
		if _, err := eng.SearchBaseline(q, 2); err != nil {
			t.Fatal(err)
		}
	})
	hot := testing.AllocsPerRun(10, func() {
		if _, err := eng.Search(q, 2); err != nil {
			t.Fatal(err)
		}
	})
	if hot*2 >= baseline {
		t.Errorf("steady-state Search allocates %.0f/run, baseline %.0f/run — want less than half", hot, baseline)
	}
	if resp, err := eng.Search(q, 2); err != nil {
		t.Fatal(err)
	} else if resp.Stages.Total() <= 0 {
		t.Errorf("stage timings not populated: %+v", resp.Stages)
	}
}

// TestSearchTopKAllocsSteadyState does the same for the top-k path, whose
// bounded heap must not reintroduce per-candidate churn.
func TestSearchTopKAllocsSteadyState(t *testing.T) {
	eng := allocBenchEngine(t, 400)
	q := NewQuery("alpha", "beta", "gamma")
	if _, err := eng.SearchTopK(q, 2, 10); err != nil {
		t.Fatal(err)
	}
	baseline := testing.AllocsPerRun(10, func() {
		if _, err := eng.SearchBaseline(q, 2); err != nil {
			t.Fatal(err)
		}
	})
	hot := testing.AllocsPerRun(10, func() {
		if _, err := eng.SearchTopK(q, 2, 10); err != nil {
			t.Fatal(err)
		}
	})
	if hot*2 >= baseline {
		t.Errorf("steady-state SearchTopK allocates %.0f/run, baseline full search %.0f/run — want less than half", hot, baseline)
	}
}

func BenchmarkSearchHotPath(b *testing.B) {
	eng := allocBenchEngine(b, 2000)
	q := NewQuery("alpha", "beta", "gamma")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(q, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchSeedBaseline(b *testing.B) {
	eng := allocBenchEngine(b, 2000)
	q := NewQuery("alpha", "beta", "gamma")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SearchBaseline(q, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchTopK pins the bounded-heap top-k maintenance (the seed
// re-sorted the whole running response after every accepted candidate).
func BenchmarkSearchTopK(b *testing.B) {
	eng := allocBenchEngine(b, 2000)
	q := NewQuery("alpha", "beta", "gamma")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SearchTopK(q, 1, 10); err != nil {
			b.Fatal(err)
		}
	}
}
