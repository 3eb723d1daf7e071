package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/xmltree"
)

// requireSameResponse diffs two responses field by field, ranks bit for bit
// (Stages excluded: timings are never part of the search contract).
func requireSameResponse(t *testing.T, label string, got, want *Response) {
	t.Helper()
	if got.S != want.S || got.SLSize != want.SLSize {
		t.Fatalf("%s: S/SLSize = %d/%d, want %d/%d", label, got.S, got.SLSize, want.S, want.SLSize)
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
// and SearchTopK must equal its k-prefix around both ends of |R|.
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
