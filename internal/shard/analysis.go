package shard

import (
	"sort"

	"repro/internal/core"
	"repro/internal/dewey"
	"repro/internal/di"
	"repro/internal/index"
	"repro/internal/lca"
	"repro/internal/schema"
	"repro/internal/textproc"
)

// The analysis surface of Searcher, reproduced over the shard set. Every
// method reduces to per-shard computations merged so the output equals the
// single-index result: DI resolves each result to its owning shard, result
// types sum label-keyed frequency tables, LCA baselines sort the per-shard
// answers into global Dewey order, and the schema summary is inferred
// across all shard indexes at once.

// Insights discovers the top-m Deeper Analytical Insights of a response.
// The response must come from this set's searches: each result's Ord is
// interpreted in the shard owning the result's document.
func (s *Set) Insights(resp *core.Response, m int) []di.Insight {
	return di.DiscoverIndexed(s.indexOfResult, resp, m)
}

// SLCA runs the Smallest-LCA baseline across all shards and returns the
// answer nodes' Dewey IDs in document order. An SLCA answer never spans
// documents, so the union of per-shard answers is the single-index answer
// set; sorting by Dewey order restores the single-index output order.
func (s *Set) SLCA(q core.Query) []string {
	return s.mergeBaseline(q, lca.SLCA)
}

// ELCA runs the Exclusive-LCA baseline across all shards.
func (s *Set) ELCA(q core.Query) []string {
	return s.mergeBaseline(q, lca.ELCA)
}

func (s *Set) mergeBaseline(q core.Query, f func(*index.Index, [][]int32) []int32) []string {
	var ids []dewey.ID
	for i, eng := range s.engines {
		ix := s.shards[i]
		for _, ord := range f(ix, eng.PostingLists(q)) {
			ids = append(ids, ix.IDOf(ord))
		}
	}
	sort.Slice(ids, func(i, j int) bool { return dewey.Compare(ids[i], ids[j]) < 0 })
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = id.String()
	}
	return out
}

// InferResultTypes ranks entity labels by their confidence of being the
// query's target type. Per-shard frequency tables are keyed by label
// string and summed — entities never span shards, so the summed table is
// the single-index table and the scores match exactly.
func (s *Set) InferResultTypes(query string, topK int) []di.TypeScore {
	q := core.ParseQuery(query)
	if q.Len() == 0 {
		return nil
	}
	var freq map[string][]int
	for _, eng := range s.engines {
		freq = di.MergeTypeFrequencies(freq, di.TypeFrequencies(eng, q))
	}
	return di.ScoreTypes(freq, q.Len(), topK)
}

// Suggest returns the indexed keywords within maxDist edits of the input.
// The vocabulary is the union of the shard vocabularies with summed
// posting counts — identical to the single-index vocabulary.
func (s *Set) Suggest(keyword string, maxDist, topK int) []textproc.Suggestion {
	s.vocabOnce.Do(func() {
		s.vocab = make(map[string]int)
		for _, ix := range s.shards {
			ix.ForEachKeyword(func(kw string, live int) {
				s.vocab[kw] += live
			})
		}
	})
	return textproc.Suggest(keyword, s.vocab, maxDist, topK)
}

// HasMatches reports whether the keyword has postings in any shard.
func (s *Set) HasMatches(keyword string) bool {
	for _, ix := range s.shards {
		if len(ix.Lookup(keyword)) > 0 {
			return true
		}
	}
	return false
}

// Schema infers the structural schema summary across every shard — a
// child repeating in any shard marks the edge repeating, exactly as on a
// single index over all the documents.
func (s *Set) Schema() []schema.Edge {
	return schema.InferIndexes(s.shards...).Edges()
}

// ApplySchemaCategorization re-categorizes every shard's nodes against the
// schema inferred across ALL shards — inferring per shard would let the
// same label classify differently on different shards (e.g. a single-
// author article in a shard with no multi-author ones). Returns the total
// number of nodes whose category changed. Like the System method it must
// not race concurrent searches.
func (s *Set) ApplySchemaCategorization() int {
	sum := schema.InferIndexes(s.shards...)
	changed := 0
	for _, ix := range s.shards {
		changed += schema.Apply(ix, sum.Categorize(ix))
	}
	return changed
}
