package shard

import (
	"container/heap"
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
)

// Search fans the request out to every shard in parallel and merges the
// per-shard ranked lists into one globally ordered response. With TopK = k
// each shard ranks only its own top k: every global top-k result is within
// the top k of its own shard, so the global top k is a prefix of their
// merge. The best-effort scan runs at the set level, over merged
// responses, so the effective s is decided by the whole corpus exactly as
// on a single index (a per-shard best effort could settle on different
// thresholds per shard).
func (s *Set) Search(ctx context.Context, req core.SearchRequest) (*core.Response, error) {
	q, k := req.Query, req.TopK
	search := func(ctx context.Context, threshold int) (*core.Response, error) {
		if err := q.Validate(); err != nil {
			return nil, err
		}
		resps, partial, err := scatterShards(ctx, s, func(ctx context.Context, eng *core.Engine) (*core.Response, error) {
			return eng.SearchCtx(ctx, core.SearchRequest{Query: q, S: threshold, TopK: k})
		})
		if err != nil {
			return nil, err
		}
		return s.gather(q, resps, partial, k), nil
	}
	if !req.BestEffort {
		return search(ctx, req.S)
	}
	return bestEffortPartialAware(ctx, q,
		func(ctx context.Context, threshold int) (bool, bool, error) {
			// A probe runs every shard's candidate stages and ranks nothing.
			hits, partial, err := scatterShards(ctx, s, func(ctx context.Context, eng *core.Engine) (bool, error) {
				return eng.HasResults(ctx, q, threshold)
			})
			return slices.Contains(hits, true), partial, err
		}, search)
}

// bestEffortPartialAware runs the core.BestEffort threshold scan over
// probe (non-empty, partial) and search, flagging the final response
// partial when any probe in the scan was partial: under AllowPartial, a
// degraded probe can make a non-empty threshold look empty and steer the
// scan to a lower s than a healthy set would settle on — so even a final
// search that succeeded on every shard is not trustworthy as a complete
// answer.
func bestEffortPartialAware(ctx context.Context, q core.Query, probe func(context.Context, int) (nonEmpty, partial bool, err error), search func(context.Context, int) (*core.Response, error)) (*core.Response, error) {
	anyPartial := false
	resp, err := core.BestEffort(ctx, q, func(ctx context.Context, threshold int) (bool, error) {
		nonEmpty, partial, err := probe(ctx, threshold)
		anyPartial = anyPartial || (err == nil && partial)
		return nonEmpty, err
	}, search)
	if err != nil || resp == nil {
		return resp, err
	}
	if anyPartial {
		// Responses are freshly allocated per scatter-gather merge, so the
		// flag can be set in place.
		resp.Partial = true
	}
	return resp, nil
}

// scatterShards runs one function against every shard engine concurrently
// and returns one result per shard; failed shards leave the zero T. Without
// AllowPartial the first shard error cancels the remaining shards and fails
// the call; with it, failed shards are dropped and the result is flagged
// partial (unless every shard failed, which is still an error). Searches,
// probes and explains share it (a free function because methods cannot
// carry type parameters), so it owns all the fan-out policy: per-shard
// latency observation, first-error cancellation, degrade-to-partial under
// AllowPartial with the all-shards-failed and caller-cancelled exclusions.
func scatterShards[T any](ctx context.Context, s *Set, run func(ctx context.Context, eng *core.Engine) (T, error)) ([]T, bool, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]T, len(s.engines))
	errs := make([]error, len(s.engines))
	var wg sync.WaitGroup
	for i := range s.engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			res, err := run(ctx, s.engines[i])
			if s.metrics != nil {
				s.metrics.ObserveShardSearch(i, time.Since(start))
			}
			if err != nil {
				errs[i] = err
				if !s.allowPartial {
					cancel() // first error wins: stop the other shards
				}
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	failed := 0
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		failed++
		// Prefer the root-cause error over the context.Canceled the other
		// shards observe after the first failure cancels the fan-out.
		if firstErr == nil || (errors.Is(firstErr, context.Canceled) && !errors.Is(err, context.Canceled)) {
			firstErr = err
		}
	}
	if failed == 0 {
		return results, false, nil
	}
	if !s.allowPartial || failed == len(s.engines) {
		return nil, false, firstErr
	}
	if err := ctx.Err(); err != nil {
		// The caller's context expired mid-fan-out: that is a cancelled
		// request, not a degraded shard — don't dress it up as partial.
		return nil, false, err
	}
	if s.metrics != nil {
		s.metrics.IncShardPartial()
	}
	return results, true, nil
}

// gather merges per-shard responses into one response in global order:
// rank desc, keyword count desc, Dewey order — exactly the single-index
// sort. k > 0 truncates the merged list. SLSize and Total sum (S_L and
// R_Q(s) are partitioned by document, like everything else).
func (s *Set) gather(q core.Query, resps []*core.Response, partial bool, k int) *core.Response {
	out := &core.Response{Query: q, Partial: partial}
	h := make(resultHeap, 0, len(resps))
	merged := 0
	for _, r := range resps {
		if r == nil {
			continue
		}
		out.S = r.S
		out.SLSize += r.SLSize
		out.Total += r.Total
		out.Stages.Add(r.Stages)
		merged += len(r.Results)
		if len(r.Results) > 0 {
			h = append(h, cursor{list: r.Results})
		}
	}
	if k > 0 && merged > k {
		merged = k
	}
	out.Results = make([]core.Result, 0, merged)
	heap.Init(&h)
	for h.Len() > 0 && (k <= 0 || len(out.Results) < k) {
		c := &h[0]
		out.Results = append(out.Results, c.list[c.pos])
		c.pos++
		if c.pos == len(c.list) {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	return out
}

// cursor walks one shard's ranked result list during the k-way merge.
type cursor struct {
	list []core.Result
	pos  int
}

// resultHeap is a min-heap of shard cursors ordered by the global response
// comparator, so the heap root is always the next result to emit.
type resultHeap []cursor

func (h resultHeap) Len() int { return len(h) }
func (h resultHeap) Less(i, j int) bool {
	return core.ResultBefore(h[i].list[h[i].pos], h[j].list[h[j].pos])
}
func (h resultHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x any)   { *h = append(*h, x.(cursor)) }
func (h *resultHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Explain runs q on every shard while recording pipeline statistics, and
// aggregates them: counters and stage times sum across shards, and the
// embedded response is the scatter-gather merge. Shards are explained
// through the same fan-out as searches: they run in parallel, per-shard
// latency reaches the metrics sink, a failing shard cancels its siblings,
// and under AllowPartial the trace degrades like a search would (failed
// shards contribute nothing; the embedded response is flagged partial).
func (s *Set) Explain(ctx context.Context, q core.Query, threshold int) (*core.Explanation, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	exs, partial, err := scatterShards(ctx, s, func(ctx context.Context, eng *core.Engine) (*core.Explanation, error) {
		return eng.Explain(ctx, q, threshold)
	})
	if err != nil {
		return nil, err
	}
	out := &core.Explanation{Query: q}
	resps := make([]*core.Response, len(exs))
	for i, ex := range exs {
		if ex == nil {
			continue // failed shard under AllowPartial
		}
		if out.PostingSizes == nil {
			out.PostingSizes = make([]int, len(ex.PostingSizes))
		}
		for k, n := range ex.PostingSizes {
			out.PostingSizes[k] += n
		}
		out.S = ex.S
		out.SLSize += ex.SLSize
		out.RecordsTouched += ex.RecordsTouched
		out.RecordsQualified += ex.RecordsQualified
		out.Blocks += ex.Blocks
		out.PrunedBlocks += ex.PrunedBlocks
		out.LCPNodes += ex.LCPNodes
		out.Candidates += ex.Candidates
		out.EntityCandidates += ex.EntityCandidates
		out.Survivors += ex.Survivors
		out.MergeTime += ex.MergeTime
		out.ScanTime += ex.ScanTime
		out.RankTime += ex.RankTime
		out.Stages.Add(ex.Stages)
		resps[i] = ex.Response
	}
	out.Response = s.gather(q, resps, partial, 0)
	return out, nil
}
