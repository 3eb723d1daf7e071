package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/index"
	"repro/internal/merge"
)

// Explanation traces one search through the GKS pipeline — the efficiency
// story of §4 made inspectable: posting sizes, the merged list, window
// blocks, LCP/LCE candidates, witness filtering and ranking.
type Explanation struct {
	Query Query
	S     int
	// PostingSizes is |S_i| per keyword.
	PostingSizes []int
	// SLSize is |S_L| (the sum of posting sizes).
	SLSize int
	// Blocks is the number of sliding-window blocks with s unique keywords.
	Blocks int
	// LCPNodes is the number of distinct longest-common-prefix nodes.
	LCPNodes int
	// Candidates is the number of distinct candidates after lifting.
	Candidates int
	// EntityCandidates counts candidates that are LCE nodes.
	EntityCandidates int
	// Survivors is the response size after the independent-witness filter.
	Survivors int
	// MergeTime, ScanTime and RankTime split the wall-clock cost of the
	// actual search pipeline (they are coarse views of Stages: ScanTime
	// covers the window, lift and filter stages).
	MergeTime, ScanTime, RankTime time.Duration
	// Stages is the full per-stage timing breakdown of the search.
	Stages StageTimings
	// Response is the final ranked response.
	Response *Response
}

// String renders the trace as a compact report.
func (ex *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query %s (|Q|=%d, s=%d)\n", ex.Query, ex.Query.Len(), ex.S)
	fmt.Fprintf(&b, "  postings: %v -> |S_L| = %d (merge %v)\n",
		ex.PostingSizes, ex.SLSize, ex.MergeTime.Round(time.Microsecond))
	fmt.Fprintf(&b, "  windows:  %d blocks -> %d LCP nodes -> %d candidates (%d LCE) (scan %v)\n",
		ex.Blocks, ex.LCPNodes, ex.Candidates, ex.EntityCandidates, ex.ScanTime.Round(time.Microsecond))
	fmt.Fprintf(&b, "  witness:  %d survivors (rank %v)\n",
		ex.Survivors, ex.RankTime.Round(time.Microsecond))
	return b.String()
}

// Explain runs the search while recording pipeline statistics. The
// response in the result is identical to Search(q, s).
func (e *Engine) Explain(q Query, s int) (*Explanation, error) {
	return e.ExplainCtx(context.Background(), q, s)
}

// ExplainCtx is Explain honoring ctx: the diagnostic pre-pass checks for
// cancellation between stages, and the embedded real search is SearchCtx
// itself, polls in the candidate stages and the rank sweep included. The shard
// scatter-gather relies on this to cancel sibling explains when one
// shard fails.
func (e *Engine) ExplainCtx(ctx context.Context, q Query, s int) (*Explanation, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ex := &Explanation{Query: q}

	// Diagnostic pre-pass: recompute the merged list, blocks and LCP set
	// with maps to expose the intermediate counts the arena-based pipeline
	// no longer materializes. Timings come from the real search below.
	lists := make([][]int32, q.Len())
	for i, kw := range q.Keywords {
		lists[i] = e.postings(kw)
		ex.PostingSizes = append(ex.PostingSizes, len(lists[i]))
	}
	if err := e.ix.LazyErr(); err != nil {
		return nil, err
	}
	sl := merge.Merge(lists)
	ex.SLSize = len(sl)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if s < 1 {
		s = 1
	}
	if s > q.Len() {
		s = q.Len()
	}
	ex.S = s

	lcp := map[int32]bool{}
	merge.Windows(sl, s, func(l, r int) {
		ex.Blocks++
		if ord, ok := e.lcpNode(sl[l].Ord, sl[r].Ord); ok {
			lcp[ord] = true
		}
	})
	ex.LCPNodes = len(lcp)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	resp, err := e.SearchCtx(ctx, q, s)
	if err != nil {
		return nil, err
	}
	ex.Survivors = resp.Total
	// Candidate statistics require the pre-filter view; recompute cheaply
	// from the LCP set.
	seen := map[int32]bool{}
	for ord := range lcp {
		lifted := ord
		for e.ix.CatOf(lifted)&index.Attribute != 0 && e.ix.ParentOf(lifted) >= 0 {
			lifted = e.ix.ParentOf(lifted)
		}
		final := lifted
		isEntity := false
		if ent, ok := e.ix.LowestEntityAncestorOrSelf(lifted); ok {
			if e.ix.DepthOf(ent) > 0 {
				final, isEntity = ent, true
			}
		}
		if e.ix.DepthOf(final) == 0 {
			continue
		}
		if !seen[final] {
			seen[final] = true
			ex.Candidates++
			if isEntity {
				ex.EntityCandidates++
			}
		}
	}

	ex.Stages = resp.Stages
	ex.MergeTime = resp.Stages.Merge
	ex.ScanTime = resp.Stages.Windows + resp.Stages.Lift + resp.Stages.Filter
	ex.RankTime = resp.Stages.Rank
	ex.Response = resp
	return ex, nil
}
