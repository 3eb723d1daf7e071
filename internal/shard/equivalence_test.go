package shard

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/di"
	"repro/internal/index"
	"repro/internal/lca"
	"repro/internal/schema"
	"repro/internal/xmltree"
)

// The sharded scatter-gather must be observationally identical to one
// index over all the documents: same results in the same order with the
// same floats, same insights, same baselines, same inferred types. These
// tests assert exact (bit-level) equality on random corpora and random
// shard counts — any "approximately equal" escape hatch would hide a
// partition leak.

var corpusWords = []string{
	"apple", "pear", "plum", "fig", "cherry", "mango", "quince", "grape",
}

// randomDoc builds one random document; entity-shaped subtrees appear when
// withEntities is set so LCE lifting and DI have something to find.
func randomDoc(rng *rand.Rand, name string, withEntities bool) *xmltree.Document {
	var build func(depth int) *xmltree.Node
	build = func(depth int) *xmltree.Node {
		if depth >= 5 || rng.Intn(4) == 0 {
			return xmltree.ET("leaf", corpusWords[rng.Intn(len(corpusWords))])
		}
		if withEntities && rng.Intn(3) == 0 {
			e := xmltree.E("entity", xmltree.ET("label", corpusWords[rng.Intn(len(corpusWords))]))
			for i, members := 0, 2+rng.Intn(3); i < members; i++ {
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
	for i := 0; i < 1+rng.Intn(3); i++ {
		root.Append(build(1))
	}
	return xmltree.NewDocument(name, 0, root)
}

// randomCorpus builds 1..10 random documents with distinct names.
func randomCorpus(rng *rand.Rand) []*xmltree.Document {
	docs := make([]*xmltree.Document, 1+rng.Intn(10))
	for i := range docs {
		docs[i] = randomDoc(rng, fmt.Sprintf("doc-%03d.xml", i), rng.Intn(2) == 0)
	}
	return docs
}

// singleIndex builds the reference: one index over all documents, numbered
// exactly as shard.Build numbers them (in slice order).
func singleIndex(t *testing.T, docs []*xmltree.Document) (*index.Index, *core.Engine) {
	t.Helper()
	repo := &xmltree.Repository{}
	for _, d := range docs {
		repo.Add(d)
	}
	ix, err := index.Build(repo, index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ix, core.NewEngine(ix)
}

// sameResponse asserts bit-identical responses: every field of every
// result, position by position, including the exact Rank floats.
func sameResponse(t *testing.T, label string, want, got *core.Response) {
	t.Helper()
	if got.S != want.S || got.SLSize != want.SLSize || got.Total != want.Total {
		t.Fatalf("%s: S/SLSize/Total = %d/%d/%d, want %d/%d/%d", label, got.S, got.SLSize, got.Total, want.S, want.SLSize, want.Total)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d results, want %d", label, len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		w, g := want.Results[i], got.Results[i]
		if g.ID.String() != w.ID.String() || g.Label != w.Label ||
			g.IsEntity != w.IsEntity || g.Mask != w.Mask ||
			g.KeywordCount != w.KeywordCount || g.LCPCount != w.LCPCount ||
			g.Rank != w.Rank {
			t.Fatalf("%s: result %d differs:\n  want %+v\n  got  %+v", label, i, w, g)
		}
	}
}

func sameInsights(t *testing.T, label string, want, got []di.Insight) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d insights, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.String() != w.String() || g.Weight != w.Weight || g.Count != w.Count ||
			g.Example.String() != w.Example.String() {
			t.Fatalf("%s: insight %d differs:\n  want %+v\n  got  %+v", label, i, w, g)
		}
	}
}

func sameStrings(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %v, want %v", label, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d: %q, want %q", label, i, got[i], want[i])
		}
	}
}

// singleBaseline renders the single-index SLCA/ELCA answer the way the set
// does: Dewey IDs in document order (ord order IS Dewey order).
func singleBaseline(ix *index.Index, eng *core.Engine, q core.Query,
	f func(*index.Index, [][]int32) []int32) []string {
	ords := f(ix, eng.PostingLists(q))
	out := make([]string, len(ords))
	for i, ord := range ords {
		out[i] = ix.IDOf(ord).String()
	}
	return out
}

func TestShardedSearchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1601))
	for trial := 0; trial < 60; trial++ {
		docs := randomCorpus(rng)
		ix, eng := singleIndex(t, docs)
		opts := DefaultOptions(1 + trial%8)
		opts.ByTokens = trial%3 == 0
		set, err := Build(docs, opts)
		if err != nil {
			t.Fatal(err)
		}

		// Random query of 2..4 distinct corpus words.
		terms := append([]string(nil), corpusWords...)
		rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
		terms = terms[:2+rng.Intn(3)]
		q := core.NewQuery(terms...)
		queryStr := ""
		for i, kw := range terms {
			if i > 0 {
				queryStr += " "
			}
			queryStr += kw
		}

		for s := 1; s <= q.Len(); s++ {
			label := fmt.Sprintf("trial %d (shards=%d) s=%d", trial, set.NumShards(), s)
			want, err := eng.Search(q, s)
			if err != nil {
				t.Fatal(err)
			}
			got, err := set.Search(context.Background(), core.SearchRequest{Query: q, S: s})
			if err != nil {
				t.Fatal(err)
			}
			sameResponse(t, label, want, got)
			if got.Partial {
				t.Fatalf("%s: healthy fan-out flagged partial", label)
			}

			// DI over the sharded response must match DI over the
			// single-index response (same ranked nodes, same weights).
			sameInsights(t, label,
				di.DiscoverIndexed(func(core.Result) *index.Index { return ix }, want, 5),
				set.Insights(got, 5))

			// Top-k is the k-prefix of the full response, around both ends
			// of |R|; k <= 0 asks for everything. Total stays |R|, summed
			// over the shards, whatever k is.
			n := len(want.Results)
			if want.Total != n {
				t.Fatalf("%s: single-index Total %d, want %d", label, want.Total, n)
			}
			for _, k := range []int{0, 1, 10, n - 1, n, n + 1} {
				wantK := *want
				if k > 0 && k < n {
					wantK.Results = want.Results[:k]
				}
				gotK, err := set.Search(context.Background(), core.SearchRequest{Query: q, S: s, TopK: k})
				if err != nil {
					t.Fatal(err)
				}
				sameResponse(t, fmt.Sprintf("%s k=%d", label, k), &wantK, gotK)
			}
		}

		// Best effort settles on the same threshold and the same response,
		// and best-effort top-k is its k-prefix with the same Total.
		wantBE, err := eng.SearchBestEffort(q)
		if err != nil {
			t.Fatal(err)
		}
		n := len(wantBE.Results)
		for _, k := range []int{0, 1, 10, n - 1, n, n + 1} {
			wantK := *wantBE
			if k > 0 && k < n {
				wantK.Results = wantBE.Results[:k]
			}
			gotK, err := set.Search(context.Background(), core.SearchRequest{Query: q, TopK: k, BestEffort: true})
			if err != nil {
				t.Fatal(err)
			}
			sameResponse(t, fmt.Sprintf("trial %d best-effort k=%d", trial, k), &wantK, gotK)
		}

		// LCA baselines and inferred result types.
		sameStrings(t, fmt.Sprintf("trial %d SLCA", trial),
			singleBaseline(ix, eng, q, lca.SLCA), set.SLCA(q))
		sameStrings(t, fmt.Sprintf("trial %d ELCA", trial),
			singleBaseline(ix, eng, q, lca.ELCA), set.ELCA(q))
		wantTypes := di.InferResultTypes(eng, q, 5)
		gotTypes := set.InferResultTypes(queryStr, 5)
		if len(wantTypes) != len(gotTypes) {
			t.Fatalf("trial %d: %d type scores, want %d", trial, len(gotTypes), len(wantTypes))
		}
		for i := range wantTypes {
			w, g := wantTypes[i], gotTypes[i]
			if g.Label != w.Label || g.Score != w.Score || len(g.PerKeyword) != len(w.PerKeyword) {
				t.Fatalf("trial %d: type %d = %+v, want %+v", trial, i, g, w)
			}
			for j := range w.PerKeyword {
				if g.PerKeyword[j] != w.PerKeyword[j] {
					t.Fatalf("trial %d: type %d = %+v, want %+v", trial, i, g, w)
				}
			}
		}

		// Aggregated statistics match the single index exactly.
		wantSt, gotSt := ix.Stats, set.Stats()
		if gotSt != wantSt {
			t.Fatalf("trial %d: stats %+v, want %+v", trial, gotSt, wantSt)
		}
		if err := set.ValidateIndex(); err != nil {
			t.Fatal(err)
		}
	}
}

func singleSchemaEdges(ix *index.Index) []schema.Edge { return schema.Infer(ix).Edges() }

func applySingleSchema(ix *index.Index) int {
	return schema.Apply(ix, schema.Infer(ix).Categorize(ix))
}

// TestShardedSchemaEquivalence checks that cross-shard schema inference and
// re-categorization leave the sharded system in the same observable state
// as the single index: same edges, same changed-node count, and identical
// search results afterwards (categorization affects entity lifting).
func TestShardedSchemaEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		docs := randomCorpus(rng)
		ix, eng := singleIndex(t, docs)
		set, err := Build(docs, DefaultOptions(1+rng.Intn(8)))
		if err != nil {
			t.Fatal(err)
		}

		wantEdges := singleSchemaEdges(ix)
		gotEdges := set.Schema()
		if len(wantEdges) != len(gotEdges) {
			t.Fatalf("trial %d: %d schema edges, want %d", trial, len(gotEdges), len(wantEdges))
		}
		for i := range wantEdges {
			if gotEdges[i] != wantEdges[i] {
				t.Fatalf("trial %d: edge %d = %+v, want %+v", trial, i, gotEdges[i], wantEdges[i])
			}
		}

		wantChanged := applySingleSchema(ix)
		gotChanged := set.ApplySchemaCategorization()
		if gotChanged != wantChanged {
			t.Fatalf("trial %d: categorization changed %d node(s), want %d",
				trial, gotChanged, wantChanged)
		}

		q := core.NewQuery("apple", "pear", "plum")
		want, err := eng.Search(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := set.Search(context.Background(), core.SearchRequest{Query: q, S: 1})
		if err != nil {
			t.Fatal(err)
		}
		sameResponse(t, fmt.Sprintf("trial %d post-schema", trial), want, got)
	}
}
