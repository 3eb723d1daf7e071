package lca

import (
	"sort"

	"repro/internal/dewey"
	"repro/internal/index"
)

// SLCAIndexedLookupEager implements the Indexed Lookup Eager algorithm of
// Xu & Papakonstantinou (SIGMOD 2005) — the SLCA baseline the paper cites
// as [13], with the complexity the paper quotes in §4.2:
// O(d·n·|S_min|·log|S_max|).
//
// For every occurrence v of the rarest keyword, and for every other
// keyword list S_i, the deepest ancestor of v containing a match from S_i
// is lca(v, closest(v, S_i)) where closest is the better of v's
// predecessor and successor in S_i. The candidate for v is the shallowest
// of those per-list ancestors (they all lie on v's ancestor path, so they
// form a chain); the SLCA set is the candidate set with ancestors of other
// candidates removed.
//
// It returns exactly the same set as SLCA. No product code calls it: it is
// the test oracle the eager tests hold SLCA against, and
// BenchmarkSLCAAlgorithms compares the window-based derivation used by the
// GKS engine with this classic per-occurrence lookup.
func SLCAIndexedLookupEager(ix *index.Index, lists [][]int32) []int32 {
	n := len(lists)
	if n == 0 {
		return nil
	}
	for _, l := range lists {
		if len(l) == 0 {
			return nil
		}
	}
	// Drive from the shortest list.
	shortest := 0
	for i, l := range lists {
		if len(l) < len(lists[shortest]) {
			shortest = i
		}
	}

	seen := make(map[int32]bool)
	var cands []int32
	for _, v := range lists[shortest] {
		cand, ok := candidateFor(ix, lists, shortest, v)
		if ok && !seen[cand] {
			seen[cand] = true
			cands = append(cands, cand)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	return dropAncestorsOfCandidates(ix, cands)
}

// candidateFor computes the deepest node containing v plus one match from
// every list.
func candidateFor(ix *index.Index, lists [][]int32, skip int, v int32) (int32, bool) {
	vid := ix.IDOf(v)
	best := v // deepest possible: v itself
	for i, list := range lists {
		if i == skip {
			continue
		}
		a, ok := deepestAncestorWithMatch(ix, list, v, vid)
		if !ok {
			return 0, false
		}
		// All candidates are ancestors-or-self of v: keep the shallowest.
		if ix.DepthOf(a) < ix.DepthOf(best) {
			best = a
		}
	}
	return best, true
}

// deepestAncestorWithMatch returns the deepest ancestor-or-self of v whose
// subtree contains an element of list: the deeper of lca(v, pred) and
// lca(v, succ) where pred/succ are v's neighbors in the (ordinal-sorted)
// list.
func deepestAncestorWithMatch(ix *index.Index, list []int32, v int32, vid dewey.ID) (int32, bool) {
	pos := sort.Search(len(list), func(i int) bool { return list[i] >= v })
	bestDepth := -1
	var best int32
	consider := func(u int32) {
		id, ok := dewey.LCA(vid, ix.IDOf(u))
		if !ok {
			return
		}
		ord, ok := ix.OrdinalOf(id)
		if !ok {
			return
		}
		if d := len(id.Path); d > bestDepth {
			bestDepth, best = d, ord
		}
	}
	if pos < len(list) {
		consider(list[pos]) // successor (or v itself)
	}
	if pos > 0 {
		consider(list[pos-1]) // predecessor
	}
	if bestDepth < 0 {
		return 0, false
	}
	return best, true
}
