package core

import "context"

// Extensions beyond the paper's §4 pipeline: best-effort thresholding and
// top-k retrieval. Both build on the same candidate stages and the same
// rank stage as Search and return paper-identical results.

// SearchBestEffort finds the largest threshold s for which R_Q(s) is
// non-empty and returns that response. By Lemma 2, non-emptiness is
// monotone in s (|R_Q(s1)| ≤ |R_Q(s2)| for s1 > s2), so a binary search
// over s ∈ [1, |Q|] locates the boundary in O(log |Q|) probes. This is
// "best-effort AND semantics": the engine honors as much of the query as
// the data supports, which is exactly how the paper motivates relaxing
// AND-semantics for imperfect queries (§1.1).
func (e *Engine) SearchBestEffort(q Query) (*Response, error) {
	return e.SearchBestEffortCtx(context.Background(), q)
}

// SearchBestEffortCtx is SearchBestEffort honoring ctx; each probe of the
// binary scan is individually cancellable.
func (e *Engine) SearchBestEffortCtx(ctx context.Context, q Query) (*Response, error) {
	return BestEffort(ctx, q,
		func(ctx context.Context, s int) (bool, error) { return e.HasResultsCtx(ctx, q, s) },
		func(ctx context.Context, s int) (*Response, error) { return e.SearchCtx(ctx, q, s) })
}

// HasResultsCtx reports whether R_Q(s) is non-empty. It runs the candidate
// stages alone: every survivor of the witness filter is a response node,
// so ranking cannot change the answer.
func (e *Engine) HasResultsCtx(ctx context.Context, q Query, s int) (bool, error) {
	_, cands, a, err := e.collectCandidates(ctx, q, s, nil)
	if a != nil {
		e.releaseArena(a)
	}
	return len(cands) > 0, err
}

// BestEffort runs the best-effort threshold scan: it finds the largest
// s ∈ [1, |Q|] for which nonEmpty(s) holds, by binary search (Lemma 2),
// and returns search(s) — so only the chosen threshold is ranked. s = 1 is
// never probed: when no higher threshold matches it is the answer whether
// or not it is empty. It is shared between the single-index engine and the
// sharded scatter-gather searcher so both implement identical best-effort
// semantics.
func BestEffort(ctx context.Context, q Query, nonEmpty func(ctx context.Context, s int) (bool, error), search func(ctx context.Context, s int) (*Response, error)) (*Response, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	lo, hi := 1, q.Len() // invariant: R(lo) known non-empty or lo == 1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		ok, err := nonEmpty(ctx, mid)
		if err != nil {
			return nil, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return search(ctx, lo)
}

// SearchTopK returns the k highest-ranked response nodes for the query at
// threshold s: Search(q, s).Results[:k], from the same rank sweep, with a
// bounded selection over the sort keys in place of the full sort and only
// k results materialised; Total still counts the whole response. k <= 0
// returns the whole response.
func (e *Engine) SearchTopK(q Query, s, k int) (*Response, error) {
	return e.SearchTopKCtx(context.Background(), q, s, k)
}

// SearchTopKCtx is SearchTopK honoring ctx.
func (e *Engine) SearchTopKCtx(ctx context.Context, q Query, s, k int) (*Response, error) {
	return e.search(ctx, q, s, k, nil)
}
