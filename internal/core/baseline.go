package core

import (
	"sort"

	"repro/internal/index"
	"repro/internal/merge"
	"repro/internal/rank"
)

// SearchBaseline executes the query with the pre-overhaul pipeline kept
// verbatim from the original implementation: a container/heap k-way merge,
// map-keyed scratch tables (lcpCounts, byOrd), one *candidate allocation
// per distinct lifted node, a fresh S_L slice per query and one
// rank.Scorer call per survivor. It exists for two reasons: the property
// tests diff the arena-based hot path and its one-sweep rank stage against
// it (the responses must be identical, ranks bit for bit), and the query
// benchmarks measure their speedup/allocation claims against it.
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
	return resp, nil
}
